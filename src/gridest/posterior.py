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
region at a time, so the regions meet only in a boundary system.  There the
two copies that a coupling row identifies share one unknown, so A needs no
multipliers: the system has 2 rows per coupling row, one per coupled state
pair and one per auxiliary power-flow row (360 rows on a 480-bus grid, where
M has 3600).  The covariance is assembled from the interior factors and the
boundary system's inverse, in the one n x n array that is returned; each
region block above the diagonal is computed once and mirrored below, and
each diagonal block is averaged with its own transpose, so the result is
exactly symmetric.  analyze reads each original node's deviations and
nominal values through partition.restrict_state.  analyze_central is
analyze on the one-region partition, which has no coupling rows, so every
bus is interior and the boundary system is empty.  Bi-level ALADIN
condenses its coordinator the same way (Engelmann, Jiang, Houska and
Faulwasser, IEEE TCNS 2020); substructuring with shared interface unknowns
is the domain-decomposition form (Smith, Bjorstad and Gropp, Domain
Decomposition, 1996).

Standard deviations are reported per node channel.  Relative deviations
divide by the nominal magnitude and are undefined where the nominal is
essentially zero (slack angle, zero injections); those entries are
flagged and excluded from the network averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from . import grid, linalg, measurements, partition as partition_mod
from .errors import DimensionMismatch, SingularBordered, SingularMatrix, ValidationError

REL_EXCLUDE_BELOW = 1e-3
CHANNELS = ("theta", "v", "p", "q")


def _split_region(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior and boundary unknowns of one region's KKT system, from the
    number of coupling entries in each of its states.

    The unknowns are the region's states followed by its power-flow rows,
    node major: bus k owns states 4k..4k+3 and rows 2k, 2k+1.  A bus is
    boundary when the coupling stores an entry in any of its states,
    interior otherwise.  Each group lists its states first, then its rows.
    """
    n_states = counts.size
    on_boundary = counts.reshape(-1, 4).any(axis=1)

    def unknowns(buses):
        states = (4 * buses[:, None] + np.arange(4)).ravel()
        rows = (2 * buses[:, None] + np.arange(2)).ravel()
        return np.concatenate([states, n_states + rows])

    return unknowns(np.flatnonzero(~on_boundary)), unknowns(np.flatnonzero(on_boundary))


def covariance_bound(
    fit_jacobians: Sequence[np.ndarray],
    constraint_jacobians: Sequence[np.ndarray],
    couplings: Sequence[scipy.sparse.sparray | np.ndarray],
) -> np.ndarray:
    """State block of the inverse bordered matrix, in region state order.

    The couplings must be shaped as partition.partition_grid builds them:
    every boundary state has exactly one coupling entry, and every
    coupling row joins exactly two states, of two regions; anything else
    raises DimensionMismatch.  The centralized bound of a single block
    passes its one-region partition's coupling, which has zero rows.

    Each region's interior is eliminated with a dense LU of its interior
    KKT block K_II, giving W = K_II^{-1} K_IB and the boundary Schur
    complement S = K_BB - K_IB^T W.  The two copies that coupling row r
    joins share unknown t_r, read as x = t_r / s by the first region whose
    entry s (+-1 from partition_grid) lies in the row and as x = -t_r / s
    by the second, so s_1 x_1 + s_2 x_2 = 0; each boundary power-flow row
    has an unknown of its own.  The signed selection T from the shared
    unknowns to the boundary unknowns spans the null space of the coupling
    rows A_B, so the boundary block G of
    [[diag(S_1, ..., S_N), A_B^T], [A_B, 0]]^{-1} is T g T^T with
    g = (T^T S T)^{-1} (Nocedal and Wright, 16.2).  T^T S T adds the
    region Schur complements, rows and columns signed, by index: 2
    n_coupling rows and no multipliers.  The covariance is then
    K_II^{-1} + W G W^T between interior states, -W G between interior and
    boundary states and G between boundary states.

    The result is the only n x n array.  Beside it the function holds g,
    each region's factors and, for one region i at a time, g mapped to
    that region's n_i states (n_i x 2 n_coupling).  The result is exactly
    symmetric: only the blocks (i, j) with j >= i are computed, block
    (j, i) is written as the transpose of block (i, j), and a diagonal
    block is first averaged with its own transpose.

    Every product runs on scipy's BLAS, like the LU solves themselves
    (see the linalg module docstring).
    """
    if not fit_jacobians:
        raise DimensionMismatch("no regions")
    if not len(fit_jacobians) == len(constraint_jacobians) == len(couplings):
        raise DimensionMismatch("one constraint jacobian and one coupling block per fit jacobian required")
    n_coupling = np.shape(couplings[0])[0]
    # The n_coupling rows join 2 n_coupling boundary states, 4 per boundary
    # bus, and each boundary bus has 2 power-flow rows: n_coupling shared
    # state unknowns and n_coupling power-flow unknowns.  Fortran order, so
    # linalg's dense LU factors the system without a copy.
    system = np.zeros((2 * n_coupling, 2 * n_coupling), order="F")
    claims = np.zeros(n_coupling, dtype=int)
    interiors, maps, slots = [], [], []
    for i, (fit, cons, coupling) in enumerate(zip(fit_jacobians, constraint_jacobians, couplings)):
        fit, cons = (np.asarray(a, dtype=float) for a in (fit, cons))
        n = fit.shape[1]
        if n % 4 or cons.shape != (n // 2, n) or np.shape(coupling) != (n_coupling, n):
            raise DimensionMismatch(
                f"region {i}: expected 4 states, 2 power-flow rows and {n_coupling} coupling rows "
                f"over {n} states, got a {cons.shape} constraint jacobian and a {np.shape(coupling)} coupling"
            )
        coupling = scipy.sparse.csc_array(coupling, dtype=float)
        kkt = np.block([[linalg.gram(fit), cons.T], [cons, np.zeros((n // 2, n // 2))]])
        counts = np.diff(coupling.indptr)
        inner, outer = _split_region(counts)
        states_i, states_b = inner[inner < n], outer[outer < n]
        # With one entry per boundary state, entry k is state k's (row, s).
        row_of = coupling.indices
        if np.any(counts[states_b] != 1) or np.unique(row_of).size < row_of.size or np.any(claims[row_of] > 1):
            raise DimensionMismatch(f"region {i}: coupling must pair each boundary state with one of another region")
        # The region's boundary power-flow rows, half as many as its boundary
        # states, take the unknowns after those of the regions before it.
        n_rows = outer.size - states_b.size
        slot = np.concatenate([row_of, n_coupling + claims.sum() // 2 + np.arange(n_rows)])
        sign = np.concatenate([np.where(claims[row_of] == 0, 1.0, -1.0) / coupling.data, np.ones(n_rows)])
        claims[row_of] += 1
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
        schur = kkt[np.ix_(outer, outer)] - linalg.matvec(k_ib, w, trans=True)
        system[np.ix_(slot, slot)] += sign[:, None] * schur * sign
        interiors.append((states_i, sol[: states_i.size, : states_i.size]))
        # P_i T_i maps the shared unknowns of region i's boundary to its
        # states: -W on the interior states, the identity on the boundary
        # states, each column times its sign.
        p = np.zeros((n, outer.size))
        p[states_i] = -w[: states_i.size] * sign
        p[states_b, np.arange(states_b.size)] = sign[: states_b.size]
        maps.append(p)
        slots.append(slot)
    if np.any(claims != 2):
        raise DimensionMismatch("every coupling row must join exactly two boundary states")
    try:
        g = linalg.solve_linear(system, np.eye(2 * n_coupling))
    except SingularMatrix as exc:
        raise SingularBordered(f"posterior boundary system singular: {exc}") from exc

    # covariance = diag(K_II^{-1}) + P T g T^T P^T, written into the one
    # n x n result block by block: region i's rows of P T g are formed
    # once; their columns at region j's unknowns give block (i, j), j >= i,
    # against (P_j T_j)^T, and its transpose is block (j, i).  A diagonal
    # block takes its interior inverse and is averaged with its own
    # transpose, so the result is exactly symmetric without an n x n
    # temporary.
    states = np.cumsum([0] + [p.shape[0] for p in maps])
    cov = np.empty((states[-1], states[-1]))
    for i, (p, (states_i, inverse)) in enumerate(zip(maps, interiors)):
        pg = linalg.matvec(p, g[slots[i]])
        rows = slice(states[i], states[i + 1])
        for j in range(i, len(maps)):
            cols = slice(states[j], states[j + 1])
            block = linalg.matvec(pg[:, slots[j]], maps[j].T)
            if j == i:
                block[np.ix_(states_i, states_i)] += inverse
                block = 0.5 * (block + block.T)
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
    """Distributed bound at the estimate zs, reported for original nodes.
    zs that do not fit the partition raise DimensionMismatch, and a
    non-finite entry ValidationError, before any model is evaluated."""
    partition_mod.check_region_states(part, zs)
    zs = [np.asarray(z, dtype=float) for z in zs]
    if not all(np.all(np.isfinite(z)) for z in zs):
        raise ValidationError("zs has non-finite entries")
    region_sets = measurements.split_by_region(mset, part)
    fit_jacobians = []
    constraint_jacobians = []
    for region, region_set, z in zip(part.regions, region_sets, zs):
        fit_jacobians.append(measurements.RegionResidual(region.case, region_set).jacobian(z).toarray())
        constraint_jacobians.append(grid.PowerFlowModel(region.case).jacobian(z).toarray())
    covariance = covariance_bound(fit_jacobians, constraint_jacobians, list(part.coupling))
    diag = np.diag(covariance)
    if diag.min(initial=0.0) < -1e-10 * max(1.0, diag.max(initial=1.0)):
        raise SingularBordered("posterior covariance has negative variance entries")
    state_std = np.sqrt(np.clip(diag, 0.0, None))
    # The covariance is in region state order, so state_std splits into
    # region states, which the partition maps to the original nodes.
    region_std = np.split(state_std, np.cumsum([region.n_states for region in part.regions])[:-1])
    abs_std = partition_mod.restrict_state(part, region_std).reshape(-1, 4)
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
    def cell(value, starred):
        return f"{'*':>10}" if starred else f"{100.0 * value:>9.2f}%"

    lines = ["node  " + "".join(f"{c:>10}" for c in CHANNELS)]
    for bus_id, rel, excluded in zip(report.node_ids, report.rel_std, report.excluded):
        lines.append(f"{bus_id:<6}" + "".join(map(cell, rel, excluded)))
    lines.append(f"{'AVG':<6}" + "".join(map(cell, report.averages, np.isnan(report.averages))))
    return "\n".join(lines)
