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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid
from .errors import (
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
    """One region fragment: original buses plus local auxiliary buses."""

    index: int
    case: grid.GridCase
    original_bus_ids: tuple[int, ...]
    aux_bus_ids: tuple[int, ...]
    internal_lines: tuple[grid.Line, ...]

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
    coupling: tuple[np.ndarray, ...] = field(compare=False)

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

    ties = sorted(
        (line for line in case.lines if region_of[line.from_bus] != region_of[line.to_bus]),
        key=lambda line: line.key(),
    )
    next_aux = max(case.bus_ids) + 1
    pairs = []
    for t, line in enumerate(ties):
        low, high = line.key()
        pairs.append(
            AuxPair(
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
        )

    regions = []
    couplings = []
    for i in range(len(labels)):
        own_ids = tuple(b for b in case.bus_ids if region_of[b] == i)
        buses = [case.bus(b) for b in own_ids]
        internal = tuple(
            line
            for line in case.lines
            if region_of[line.from_bus] == i and region_of[line.to_bus] == i
        )
        lines = list(internal)
        aux_ids = []
        for pair in pairs:
            for anchor, aux, side_region in (
                (pair.low_bus, pair.low_aux, pair.low_region),
                (pair.high_bus, pair.high_aux, pair.high_region),
            ):
                if side_region != i:
                    continue
                # Half the impedance doubles the series admittance.
                buses.append(grid.Bus(id=aux, kind="pq"))
                lines.append(grid.Line(anchor, aux, pair.r / 2.0, pair.x / 2.0))
                aux_ids.append(aux)
        fragment = grid.GridCase(
            name=f"{case.name}/region{i}",
            base_mva=case.base_mva,
            buses=tuple(buses),
            lines=tuple(lines),
        )
        region = RegionGrid(
            index=i,
            case=fragment,
            original_bus_ids=own_ids,
            aux_bus_ids=tuple(aux_ids),
            internal_lines=internal,
        )
        regions.append(region)
        a = np.zeros((ROWS_PER_PAIR * len(pairs), 4 * fragment.n_bus))
        for pair in pairs:
            for aux, side_region, other_region in (
                (pair.low_aux, pair.low_region, pair.high_region),
                (pair.high_aux, pair.high_region, pair.low_region),
            ):
                if side_region != i:
                    continue
                sign = 1.0 if side_region < other_region else -1.0
                pos = fragment.index[aux]
                for component, entry in (
                    (grid.THETA, sign), (grid.V, sign), (grid.P, 1.0), (grid.Q, 1.0)
                ):
                    a[ROWS_PER_PAIR * pair.index + component, 4 * pos + component] = entry
        couplings.append(a)

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
    vc = grid.complex_voltage(x)
    out = []
    for region in partition.regions:
        fragment = region.case
        z = np.zeros(4 * fragment.n_bus)
        for bus_id in region.original_bus_ids:
            z[4 * fragment.index[bus_id] : 4 * fragment.index[bus_id] + 4] = x[
                4 * partition.case.index[bus_id] : 4 * partition.case.index[bus_id] + 4
            ]
        out.append(z)
    for pair in partition.aux_pairs:
        mid = 0.5 * (vc[partition.case.index[pair.low_bus]] + vc[partition.case.index[pair.high_bus]])
        for region_idx, aux in ((pair.low_region, pair.low_aux), (pair.high_region, pair.high_aux)):
            pos = partition.regions[region_idx].case.index[aux]
            out[region_idx][4 * pos + grid.THETA] = np.angle(mid)
            out[region_idx][4 * pos + grid.V] = np.abs(mid)
    injections = [grid.PowerFlowModel(region.case).injections(z) for region, z in zip(partition.regions, out)]
    for pair in partition.aux_pairs:
        s = injections[pair.low_region][partition.regions[pair.low_region].case.index[pair.low_aux]]
        for region_idx, aux, sign in (
            (pair.low_region, pair.low_aux, 1.0),
            (pair.high_region, pair.high_aux, -1.0),
        ):
            pos = partition.regions[region_idx].case.index[aux]
            out[region_idx][4 * pos + grid.P] = sign * s.real
            out[region_idx][4 * pos + grid.Q] = sign * s.imag
    return out


def restrict_state(partition: Partition, zs: list[np.ndarray]) -> np.ndarray:
    """Collect the original-node components of region states into one global state."""
    x = np.zeros(4 * partition.case.n_bus)
    for region, z in zip(partition.regions, zs):
        for bus_id in region.original_bus_ids:
            x[4 * partition.case.index[bus_id] : 4 * partition.case.index[bus_id] + 4] = z[
                4 * region.case.index[bus_id] : 4 * region.case.index[bus_id] + 4
            ]
    return x


def consensus_gap(partition: Partition, zs: list[np.ndarray]) -> np.ndarray:
    """Stacked pair mismatch sum_i A_i z_i, length 4 |pairs|."""
    gap = np.zeros(partition.n_coupling_rows)
    for a, z in zip(partition.coupling, zs):
        gap += a @ z
    return gap


def coupled_indices(partition: Partition, region_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the coupled components of one region.

    Returns (rows, cols): rows are indices into the stacked consensus
    vector (4 per pair), cols the matching state indices inside the region,
    both in ascending row order.  Useful for estimators that exchange the
    coupled components themselves rather than coupling matrices.
    """
    a = partition.coupling[region_index]
    rows, cols = np.nonzero(a)
    order = np.argsort(rows)
    return rows[order], cols[order]
