"""A-posteriori accuracy bounds from the estimator's own sensitivities.

At a converged estimate the constrained Cramer-Rao bound comes out of the
bordered system

    M = [ B^T B   C^T   A^T ]
        [   C      0     0  ]
        [   A      0     0  ]

whose leading n x n block of M^{-1} bounds the state covariance; physics
constraints C and consensus coupling A both remove uncertainty.  M is
factored once and the covariance block is obtained by solving against
identity columns, never by forming the full inverse.  M is block diagonal
per region plus the coupling border (on a 480-bus grid 3510 rows, well under
1 % nonzero), so it is assembled in scipy.sparse form and factored with the
sparse LU of the linear algebra kernel.

Standard deviations are reported per node channel.  Relative deviations
divide by the nominal magnitude and are undefined where the nominal is
essentially zero (slack angle, zero injections); those entries are
flagged and excluded from the network averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grid, measurements, partition as partition_mod
from .errors import DimensionMismatch, SingularBordered, SingularMatrix
from .linalg import SparseFactor, bordered_matrix, stack_region_blocks

REL_EXCLUDE_BELOW = 1e-3
CHANNELS = ("theta", "v", "p", "q")


def covariance_bound(
    fit_jacobians: Sequence[np.ndarray],
    constraint_jacobians: Sequence[np.ndarray],
    couplings: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Leading block of the inverse bordered matrix, block per region.

    With couplings=None this is the centralized bound for a single block.
    """
    if len(fit_jacobians) != len(constraint_jacobians):
        raise DimensionMismatch("one constraint jacobian per fit jacobian required")
    if couplings is not None and len(couplings) != len(fit_jacobians):
        raise DimensionMismatch("one coupling block per region required")
    hess, cons = stack_region_blocks([bj.T @ bj for bj in fit_jacobians], constraint_jacobians, couplings)
    n = hess.shape[0]
    bordered = bordered_matrix(hess, cons)
    try:
        factor = SparseFactor(bordered)
    except SingularMatrix as exc:
        raise SingularBordered(f"posterior system singular: {exc}") from exc
    rhs = np.zeros((bordered.shape[0], n))
    rhs[:n, :] = np.eye(n)
    cov = factor.solve(rhs)[:n, :]
    return 0.5 * (cov + cov.T)


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


def _report_for(
    node_ids: Sequence[int],
    nominal: np.ndarray,
    covariance: np.ndarray,
    node_rows: np.ndarray,
) -> PosteriorReport:
    diag = np.diag(covariance)
    if diag.min(initial=0.0) < -1e-10 * max(1.0, diag.max(initial=1.0)):
        raise SingularBordered("posterior covariance has negative variance entries")
    state_std = np.sqrt(np.clip(diag, 0.0, None))
    abs_std = state_std[node_rows].reshape(len(node_ids), 4)
    nominal = np.asarray(nominal, dtype=float).reshape(len(node_ids), 4)
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
        node_ids=tuple(int(b) for b in node_ids),
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
    residual = measurements.RegionResidual(case, mset)
    model = grid.PowerFlowModel(case)
    cov = covariance_bound([residual.jacobian(x)], [model.jacobian(x)])
    node_rows = np.arange(4 * case.n_bus)
    return _report_for(case.bus_ids, np.array(x).reshape(-1, 4), cov, node_rows)


def analyze(
    part: partition_mod.Partition,
    mset: measurements.MeasurementSet,
    zs: Sequence[np.ndarray],
) -> PosteriorReport:
    """Distributed bound at the estimate zs, reported for original nodes."""
    region_sets = measurements.split_by_region(mset, part)
    fit_jacobians = []
    constraint_jacobians = []
    for region, region_set, z in zip(part.regions, region_sets, zs):
        residual = measurements.RegionResidual(region.case, region_set)
        model = grid.PowerFlowModel(region.case)
        fit_jacobians.append(residual.jacobian(np.asarray(z, dtype=float)))
        constraint_jacobians.append(model.jacobian(np.asarray(z, dtype=float)))
    cov = covariance_bound(fit_jacobians, constraint_jacobians, list(part.coupling))
    # Map each original node to its (unique) owning region's state rows.
    offsets = np.cumsum([0] + [r.n_states for r in part.regions])
    node_rows = []
    node_ids = []
    nominal_rows = []
    for region, offset, z in zip(part.regions, offsets, zs):
        z = np.asarray(z, dtype=float)
        for bus_id in region.original_bus_ids:
            idx = region.case.index[bus_id]
            node_ids.append(bus_id)
            node_rows.extend(range(offset + 4 * idx, offset + 4 * idx + 4))
            nominal_rows.append(z[4 * idx : 4 * idx + 4])
    order = np.argsort(node_ids)
    node_ids = [node_ids[i] for i in order]
    rows = np.array(node_rows).reshape(-1, 4)[order].ravel()
    nominal = np.array(nominal_rows)[order]
    return _report_for(node_ids, nominal, cov, rows)


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
