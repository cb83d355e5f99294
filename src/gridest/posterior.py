"""A-posteriori accuracy bounds from the estimator's own sensitivities.

At a converged estimate the constrained Cramer-Rao bound comes out of the
bordered system

    M = [ B^T B   C^T   A^T ]
        [   C      0     0  ]
        [   A      0     0  ]

whose leading n x n block of M^{-1} bounds the state covariance; physics
constraints C and consensus coupling A both remove uncertainty.  M is never
factored as a whole.  Each region splits its unknowns by bus: the auxiliary
buses, whose states the coupling touches, are the boundary, every other bus
the interior.  The interior is eliminated with small dense LU factors, one
region at a time, so the regions meet only in a boundary system of 6 rows
per auxiliary bus plus the coupling rows (720 rows on a 480-bus grid, where
M has 3600).  The covariance is assembled from the interior factors and the
boundary system's inverse, one region block at a time, in the one n x n
array that is returned; it is made exactly symmetric by averaging each
block with its mirror in place.  analyze reads
each original node's covariance rows and nominal values through the
partition layout (RegionGrid.bus_pos).  analyze_central is analyze on the
one-region partition, which has no coupling rows, so every bus is
interior.  Bi-level ALADIN condenses its coordinator the same way
(Engelmann, Jiang, Houska and Faulwasser, IEEE TCNS 2020).

Standard deviations are reported per node channel.  Relative deviations
divide by the nominal magnitude and are undefined where the nominal is
essentially zero (slack angle, zero injections); those entries are
flagged and excluded from the network averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import grid, linalg, measurements, partition as partition_mod
from .errors import DimensionMismatch, SingularBordered, SingularMatrix

REL_EXCLUDE_BELOW = 1e-3
CHANNELS = ("theta", "v", "p", "q")


def _split_region(coupling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior and boundary unknowns of one region's KKT system.

    The unknowns are the region's states followed by its power-flow rows,
    node major: bus k owns states 4k..4k+3 and rows 2k, 2k+1.  A bus is
    boundary when the coupling block touches any of its states, interior
    otherwise.  Each group lists its states first, then its rows.
    """
    n_states = coupling.shape[1]
    on_boundary = (coupling != 0).any(axis=0).reshape(-1, 4).any(axis=1)

    def unknowns(buses):
        states = (4 * buses[:, None] + np.arange(4)).ravel()
        rows = (2 * buses[:, None] + np.arange(2)).ravel()
        return np.concatenate([states, n_states + rows])

    return unknowns(np.flatnonzero(~on_boundary)), unknowns(np.flatnonzero(on_boundary))


def covariance_bound(
    fit_jacobians: Sequence[np.ndarray],
    constraint_jacobians: Sequence[np.ndarray],
    couplings: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """State block of the inverse bordered matrix, in region state order.

    With couplings=None this is the centralized bound for a single block.
    Each region's interior is eliminated with a dense LU of its interior
    KKT block K_II, giving W = K_II^{-1} K_IB and the boundary Schur
    complement S = K_BB - K_IB^T W.  The regions meet only in the boundary
    system [[diag(S_1, ..., S_N), A_B^T], [A_B, 0]], where A_B holds the
    coupling columns of the boundary states; G is the boundary block of its
    inverse.  The covariance is then K_II^{-1} + W G W^T between interior
    states, -W G between interior and boundary states and G between
    boundary states.

    The result is the only n x n array.  Beside it the function holds G
    (n_b x n_b, over the boundary unknowns of all regions), each region's
    factors and, for one region i at a time, G mapped to that region's n_i
    states (n_i x n_b).  The result is exactly symmetric because each pair
    of blocks (i, j) and (j, i) is replaced in place by the average of the
    one and the other's transpose.

    Every product runs on scipy's BLAS, like the LU solves themselves
    (see the linalg module docstring).
    """
    if len(fit_jacobians) != len(constraint_jacobians):
        raise DimensionMismatch("one constraint jacobian per fit jacobian required")
    if not fit_jacobians:
        raise DimensionMismatch("no regions")
    if couplings is None:
        couplings = [np.zeros((0, np.shape(fit)[1])) for fit in fit_jacobians]
    if len(couplings) != len(fit_jacobians):
        raise DimensionMismatch("one coupling block per region required")
    n_coupling = np.shape(couplings[0])[0]
    interiors, maps, schurs, borders = [], [], [], []
    for i, (fit, cons, coupling) in enumerate(zip(fit_jacobians, constraint_jacobians, couplings)):
        fit = np.asarray(fit, dtype=float)
        cons = np.asarray(cons, dtype=float)
        coupling = np.asarray(coupling, dtype=float)
        n = fit.shape[1]
        if n % 4 or cons.shape != (n // 2, n) or coupling.shape != (n_coupling, n):
            raise DimensionMismatch(
                f"region {i}: expected 4 states, 2 power-flow rows and {n_coupling} coupling rows "
                f"over {n} states, got a {cons.shape} constraint jacobian and a {coupling.shape} coupling"
            )
        kkt = linalg.bordered_matrix(linalg.gram(fit), cons)
        inner, outer = _split_region(coupling)
        states_i, states_b = inner[inner < n], outer[outer < n]
        # K is symmetric, so K_IB is the transpose of K_BI; taken that way it
        # is Fortran-ordered, which the Schur product below reads uncopied.
        k_ib = kkt[np.ix_(outer, inner)].T
        # One LU gives the interior states' block of K_II^{-1} and W.
        rhs = np.hstack([np.eye(inner.size, states_i.size), k_ib])
        try:
            sol = linalg.solve_linear(kkt[np.ix_(inner, inner)], rhs)
        except SingularMatrix as exc:
            raise SingularBordered(f"posterior system singular in region {i}: {exc}") from exc
        w = sol[:, states_i.size :]
        schurs.append(kkt[np.ix_(outer, outer)] - linalg.matvec(k_ib, w, trans=True))
        interiors.append((states_i, sol[: states_i.size, : states_i.size]))
        # P_i maps the region's boundary unknowns to its states: -W on the
        # interior states, the identity on the boundary states.
        p = np.zeros((n, outer.size))
        p[states_i] = -w[: states_i.size]
        p[states_b, np.arange(states_b.size)] = 1.0
        maps.append(p)
        border = np.zeros((n_coupling, outer.size))
        border[:, : states_b.size] = coupling[:, states_b]
        borders.append(border)

    n_boundary = sum(s.shape[0] for s in schurs)
    g = np.zeros((0, 0))
    if n_boundary + n_coupling:
        system = linalg.bordered_matrix(scipy.linalg.block_diag(*schurs), np.hstack(borders))
        try:
            # Copy G out, so the whole solution is freed with the system.
            g = linalg.solve_linear(system, np.eye(n_boundary + n_coupling, n_boundary))[:n_boundary].copy()
        except SingularMatrix as exc:
            raise SingularBordered(f"posterior boundary system singular: {exc}") from exc
        del system

    # covariance = diag(K_II^{-1}) + P G P^T with P = diag(P_1, ..., P_N),
    # written into the one n x n result block by block: region i's rows of
    # P G (n_i x n_b) are formed once and give block (i, j) against P_j^T.
    # Averaging each block with its mirror in place then makes the result
    # exactly symmetric without an n x n temporary.
    states = np.cumsum([0] + [p.shape[0] for p in maps])
    unknowns = np.cumsum([0] + [p.shape[1] for p in maps])
    bands = [slice(a, b) for a, b in zip(states[:-1], states[1:])]
    cov = np.empty((states[-1], states[-1]))
    for i, p in enumerate(maps):
        pg = linalg.matvec(p, g[unknowns[i] : unknowns[i + 1]])
        for j, q in enumerate(maps):
            cov[bands[i], bands[j]] = linalg.matvec(pg[:, unknowns[j] : unknowns[j + 1]], q.T)
    for offset, (states_i, inverse) in zip(states, interiors):
        cov[np.ix_(offset + states_i, offset + states_i)] += inverse
    for i, rows in enumerate(bands):
        for cols in bands[i:]:
            block = cov[rows, cols] + cov[cols, rows].T
            block *= 0.5
            cov[rows, cols] = block
            cov[cols, rows] = block.T
    return cov


@dataclass(frozen=True)
class PosteriorReport:
    node_ids: tuple[int, ...]
    nominal: np.ndarray
    abs_std: np.ndarray
    rel_std: np.ndarray
    excluded: np.ndarray
    averages: np.ndarray
    covariance: np.ndarray
    state_std: np.ndarray


def analyze(
    part: partition_mod.Partition,
    mset: measurements.MeasurementSet,
    zs: Sequence[np.ndarray],
) -> PosteriorReport:
    """Distributed bound at the estimate zs, reported for original nodes."""
    partition_mod.check_region_states(part, zs)
    zs = [np.asarray(z, dtype=float) for z in zs]
    region_sets = measurements.split_by_region(mset, part)
    fit_jacobians = []
    constraint_jacobians = []
    for region, region_set, z in zip(part.regions, region_sets, zs):
        fit_jacobians.append(measurements.RegionResidual(region.case, region_set).jacobian(z))
        constraint_jacobians.append(grid.PowerFlowModel(region.case).jacobian(z))
    covariance = covariance_bound(fit_jacobians, constraint_jacobians, list(part.coupling))
    diag = np.diag(covariance)
    if diag.min(initial=0.0) < -1e-10 * max(1.0, diag.max(initial=1.0)):
        raise SingularBordered("posterior covariance has negative variance entries")
    state_std = np.sqrt(np.clip(diag, 0.0, None))
    # Each original node's rows lie in its region's block of the
    # covariance, at the fragment position the partition layout gives it.
    rows = np.empty((part.case.n_bus, 4), dtype=int)
    offset = 0
    for region in part.regions:
        rows[region.bus_pos] = offset + np.arange(4 * region.bus_pos.size).reshape(-1, 4)
        offset += region.n_states
    abs_std = state_std[rows]
    nominal = partition_mod.restrict_state(part, zs).reshape(-1, 4)
    excluded = np.abs(nominal) < REL_EXCLUDE_BELOW
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_std = np.where(excluded, np.nan, abs_std / np.abs(nominal))
    averages = np.array(
        [
            np.nanmean(rel_std[:, c]) if not excluded[:, c].all() else np.nan
            for c in range(4)
        ]
    )
    return PosteriorReport(
        node_ids=tuple(int(b) for b in part.case.bus_ids),
        nominal=nominal,
        abs_std=abs_std,
        rel_std=rel_std,
        excluded=excluded,
        averages=averages,
        covariance=covariance,
        state_std=state_std,
    )


def analyze_central(
    case: grid.GridCase, mset: measurements.MeasurementSet, x: np.ndarray
) -> PosteriorReport:
    """Centralized bound at x: analyze on the one-region partition of case."""
    return analyze(partition_mod.partition_grid(case, {bus: 0 for bus in case.bus_ids}), mset, [x])


def render_table(report: PosteriorReport) -> str:
    """Relative standard deviations as a percent table, one row per node."""
    lines = ["node  " + "".join(f"{c:>10}" for c in CHANNELS)]
    for i, bus_id in enumerate(report.node_ids):
        cells = []
        for c in range(4):
            if report.excluded[i, c]:
                cells.append(f"{'*':>10}")
            else:
                cells.append(f"{100.0 * report.rel_std[i, c]:>9.2f}%")
        lines.append(f"{bus_id:<6}" + "".join(cells))
    avg_cells = []
    for c in range(4):
        if np.isnan(report.averages[c]):
            avg_cells.append(f"{'*':>10}")
        else:
            avg_cells.append(f"{100.0 * report.averages[c]:>9.2f}%")
    lines.append(f"{'AVG':<6}" + "".join(avg_cells))
    return "\n".join(lines)
