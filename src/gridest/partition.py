"""Region decomposition with auxiliary bus pairs on cut lines.

A partition assigns every bus of a case to exactly one region.  Each line
whose endpoints land in different regions (a tie line) is cut at its
midpoint: both sides receive an auxiliary bus joined to the local endpoint
by a half line carrying half the impedance, hence twice the admittance, of
the original line.  The two auxiliary buses of a pair are copies of the
same physical midpoint, which carries no load: the copies share one complex
voltage, and the power one half line draws from the midpoint is the power
the other half line delivers to it.  The decomposed network is electrically
equivalent to the original one exactly when every pair satisfies both
conditions, and that is what the consensus constraints of the distributed
estimators enforce.

Per region i the coupling matrix A_i has one row per consensus constraint
and one column per region state component.  Each auxiliary pair owns four
consecutive rows, in state component order: angle, magnitude, active and
reactive injection.  An angle or magnitude row carries +1 on the copy owned
by the smaller region index and -1 on the other copy, so it reads the
pair's disagreement.  An injection row carries +1 on both copies, so it
reads the midpoint's power balance p_low_aux + p_high_aux (q alike).  The
stacked mismatch sum_i A_i z_i vanishes exactly when every midpoint is
consistent.

partition_grid is the one place that fixes the region layout, and every
per-bus remap reads it rather than re-deriving it.  Each fragment lists its
original buses first, in id order, then its auxiliary buses in pair order:
auxiliary ids exceed every case id and grow with the pair index, and
GridCase sorts its buses by id.  A RegionGrid records the global positions
of its original buses (bus_pos).  Partition.coupling is the one record of
each A_i, a scipy.sparse CSR array with one entry per auxiliary state:
its COO form lists them rows ascending, and the stacked border
[A_1 ... A_N] holds at most one entry per state of the regions' union.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import grid, linalg
from .errors import (
    DimensionMismatch,
    EmptyRegion,
    UnassignedBus,
    UnknownBusReference,
    ValidationError,
)

# Consensus rows per auxiliary pair, one per state component.
ROWS_PER_PAIR = 4


@dataclass(frozen=True)
class AuxPair:
    """Bookkeeping for one cut line."""

    index: int
    low_bus: int
    high_bus: int
    low_region: int
    high_region: int
    low_aux: int
    high_aux: int
    r: float
    x: float


@dataclass(frozen=True)
class RegionGrid:
    """One region fragment: original buses plus local auxiliary buses.

    The fragment's buses are original_bus_ids, then aux_bus_ids, so
    fragment position k < len(bus_pos) is the original bus at global
    position bus_pos[k].
    """

    index: int
    case: grid.GridCase
    original_bus_ids: tuple[int, ...]
    aux_bus_ids: tuple[int, ...]
    internal_lines: tuple[grid.Line, ...]
    bus_pos: np.ndarray = field(compare=False)

    @property
    def n_states(self) -> int:
        return 4 * self.case.n_bus


@dataclass(frozen=True)
class Partition:
    case: grid.GridCase
    assignment: dict[int, int]
    region_labels: tuple[object, ...]
    regions: tuple[RegionGrid, ...]
    aux_pairs: tuple[AuxPair, ...]
    coupling: tuple[scipy.sparse.csr_array, ...] = field(compare=False)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_pairs(self) -> int:
        return len(self.aux_pairs)

    @property
    def n_coupling_rows(self) -> int:
        return ROWS_PER_PAIR * len(self.aux_pairs)


def partition_grid(case: grid.GridCase, assignment: dict[int, object]) -> Partition:
    """Decompose a case along a bus-to-region assignment.

    assignment maps every bus id of the case to an arbitrary hashable
    region label; labels are normalized to indices 0..R-1 in sorted order.
    Raises UnassignedBus or UnknownBusReference when the assignment does
    not cover the case exactly.
    """
    unknown = sorted(set(assignment) - set(case.bus_ids))
    if unknown:
        raise UnknownBusReference(f"assignment references unknown buses: {unknown}")
    missing = sorted(set(case.bus_ids) - set(assignment))
    if missing:
        raise UnassignedBus(f"buses without a region: {missing}")
    labels = tuple(sorted(set(assignment.values()), key=repr))
    if not labels:
        raise EmptyRegion("assignment defines no regions")
    label_index = {label: i for i, label in enumerate(labels)}
    region_of = {bus: label_index[assignment[bus]] for bus in case.bus_ids}
    bus_region = np.array([region_of[bus] for bus in case.bus_ids])

    internal: list[list[grid.Line]] = [[] for _ in labels]
    ties = []
    for line in case.lines:
        low, high = region_of[line.from_bus], region_of[line.to_bus]
        if low == high:
            internal[low].append(line)
        else:
            ties.append(line)
    ties.sort(key=lambda line: line.key())
    next_aux = max(case.bus_ids) + 1
    pairs = []
    # sides[i]: (pair, anchor bus, auxiliary bus, angle and magnitude sign)
    # of each copy in region i, in pair order.
    sides: list[list[tuple]] = [[] for _ in labels]
    for t, line in enumerate(ties):
        low, high = line.key()
        pair = AuxPair(
            index=t,
            low_bus=low,
            high_bus=high,
            low_region=region_of[low],
            high_region=region_of[high],
            low_aux=next_aux + 2 * t,
            high_aux=next_aux + 2 * t + 1,
            r=line.r,
            x=line.x,
        )
        pairs.append(pair)
        sign = 1.0 if pair.low_region < pair.high_region else -1.0
        sides[pair.low_region].append((pair, low, pair.low_aux, sign))
        sides[pair.high_region].append((pair, high, pair.high_aux, -sign))

    regions = []
    couplings = []
    for i, side in enumerate(sides):
        bus_pos = np.flatnonzero(bus_region == i)
        buses = tuple(case.buses[k] for k in bus_pos)
        fragment = grid.GridCase(
            name=f"{case.name}/region{i}",
            base_mva=case.base_mva,
            buses=buses + tuple(grid.Bus(id=aux, kind="pq") for _, _, aux, _ in side),
            # Half the impedance doubles the series admittance.
            lines=tuple(internal[i])
            + tuple(grid.Line(anchor, aux, pair.r / 2.0, pair.x / 2.0) for pair, anchor, aux, _ in side),
        )
        # Auxiliary bus k sits at fragment position len(bus_pos) + k, and its
        # (theta, v, p, q) enter the four rows of its pair.
        t = np.array([pair.index for pair, *_ in side], dtype=int)
        rows = (ROWS_PER_PAIR * t[:, None] + np.arange(ROWS_PER_PAIR)).ravel()
        cols = 4 * bus_pos.size + np.arange(rows.size)
        signs = np.array([(sign, sign, 1.0, 1.0) for *_, sign in side]).ravel()
        regions.append(RegionGrid(
            index=i,
            case=fragment,
            original_bus_ids=tuple(bus.id for bus in buses),
            aux_bus_ids=tuple(aux for _, _, aux, _ in side),
            internal_lines=tuple(internal[i]),
            bus_pos=bus_pos,
        ))
        couplings.append(scipy.sparse.csr_array(
            (signs, (rows, cols)), shape=(ROWS_PER_PAIR * len(pairs), 4 * fragment.n_bus),
        ))

    return Partition(
        case=case,
        assignment=region_of,
        region_labels=labels,
        regions=tuple(regions),
        aux_pairs=tuple(pairs),
        coupling=tuple(couplings),
    )


def internal_line_keys(partition: Partition) -> tuple[tuple[int, int], ...]:
    """Unordered endpoint keys of every line that survives the cut intact.

    This is the measurable line set of a partitioned run: cut lines lose
    their physical sensors to the split, auxiliary half lines carry none.
    """
    keys = []
    for region in partition.regions:
        keys.extend(line.key() for line in region.internal_lines)
    return tuple(sorted(keys))


def merge_check(partition: Partition) -> float:
    """Largest admittance defect when the half lines are recombined.

    For every auxiliary pair the two half-line admittances are put back in
    series, 1 / (1/y_low + 1/y_high), and compared against the original
    line admittance.  Returns the worst absolute deviation over real and
    imaginary parts; anything above 1e-12 means the cut is wrong.
    """
    worst = 0.0
    for pair in partition.aux_pairs:
        halves = []
        for region_idx, aux in ((pair.low_region, pair.low_aux), (pair.high_region, pair.high_aux)):
            fragment = partition.regions[region_idx].case
            found = [
                line
                for line in fragment.lines
                if aux in (line.from_bus, line.to_bus)
            ]
            if len(found) != 1:
                raise ValidationError(f"auxiliary bus {aux} must sit on exactly one half line")
            halves.append(found[0].admittance)
        series = 1.0 / (1.0 / halves[0] + 1.0 / halves[1])
        original = 1.0 / complex(pair.r, pair.x)
        worst = max(worst, abs(series.real - original.real), abs(series.imag - original.imag))
    return worst


def extend_state(partition: Partition, x: np.ndarray) -> list[np.ndarray]:
    """Map a global state onto the region fragments.

    Original nodes copy their components.  Each auxiliary bus takes the
    complex midpoint voltage of its cut line.  The injections of a pair are
    back-computed once, from the power flow equations of the low copy's
    fragment, and the high copy takes their negation, so a globally
    physical x extends to fragment states that are physical as well and
    that close every consensus row exactly.
    """
    if x.shape != (4 * partition.case.n_bus,):
        raise ValidationError(
            f"state length {x.shape} does not match case size {4 * partition.case.n_bus}"
        )
    regions, pairs = partition.regions, partition.aux_pairs
    vc = grid.complex_voltage(x)
    mid = np.array([0.5 * (vc[partition.case.index[p.low_bus]] + vc[partition.case.index[p.high_bus]]) for p in pairs])
    # The pair of each region's auxiliary buses, in fragment order.
    aux_pair = [a.tocoo().row[::ROWS_PER_PAIR] // ROWS_PER_PAIR for a in partition.coupling]
    out = [np.zeros((region.case.n_bus, 4)) for region in regions]
    for region, t, z in zip(regions, aux_pair, out):
        n = region.bus_pos.size
        z[:n] = x.reshape(-1, 4)[region.bus_pos]
        z[n:, grid.THETA] = np.angle(mid[t])
        z[n:, grid.V] = np.abs(mid[t])
    injections = [grid.PowerFlowModel(region.case).injections(z.ravel()) for region, z in zip(regions, out)]
    s = np.array([injections[p.low_region][regions[p.low_region].case.index[p.low_aux]] for p in pairs])
    low_region = np.array([p.low_region for p in pairs], dtype=int)
    for region, t, z in zip(regions, aux_pair, out):
        n = region.bus_pos.size
        sign = np.where(low_region[t] == region.index, 1.0, -1.0)
        z[n:, grid.P] = sign * s[t].real
        z[n:, grid.Q] = sign * s[t].imag
    return [z.ravel() for z in out]


def check_region_states(partition: Partition, zs) -> None:
    """Raise DimensionMismatch unless zs holds one state per region, in
    region order, each of length region.n_states."""
    shapes = [np.shape(z) for z in zs]
    expected = [(region.n_states,) for region in partition.regions]
    if shapes != expected:
        raise DimensionMismatch(f"region state shapes {shapes} do not match the partition's {expected}")


def restrict_state(partition: Partition, zs: list[np.ndarray]) -> np.ndarray:
    """Collect the original-node components of region states into one global state."""
    check_region_states(partition, zs)
    x = np.zeros(4 * partition.case.n_bus)
    for region, z in zip(partition.regions, zs):
        x.reshape(-1, 4)[region.bus_pos] = np.reshape(z, (-1, 4))[: region.bus_pos.size]
    return x


def consensus_gap(partition: Partition, zs: list[np.ndarray]) -> np.ndarray:
    """Stacked pair mismatch sum_i A_i z_i, length 4 |pairs|."""
    check_region_states(partition, zs)
    gap = np.zeros(partition.n_coupling_rows)
    for a, z in zip(partition.coupling, zs):
        gap += linalg.matvec(a, z)
    return gap
