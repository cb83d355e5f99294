"""Centralized estimator: one Gauss-Newton solve over the whole grid.

Reference solution the distributed runs are judged against.  Same inner
machinery as the regional subproblems, with no proximal term and a tiny
Levenberg ridge so the normal matrix stays comfortably definite on the
full-size problem.

Unlike a region, the whole grid is large and its Jacobians are well under
1 % nonzero, so the residual and power-flow Jacobians are requested in
scipy.sparse form, and every step's reduced (theta, v) system, 2 N rows
instead of the bordered 6 N, is formed sparse and factored with sparse LU.
The Jacobians' patterns do not change between steps, so linalg computes
where each entry of that system comes from once per solve and each step
only refills values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid, local_solver, measurements
from .errors import DimensionMismatch, Diverged

#: Levenberg ridge mu added to the Gauss-Newton Hessian.
MU = 1e-8


@dataclass(frozen=True)
class CentralSolution:
    x: np.ndarray
    fit: float
    inner_iterations: int
    kkt_residual: float


def solve_central(
    case: grid.GridCase,
    mset: measurements.MeasurementSet,
    x0: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> CentralSolution:
    """Estimate the whole grid's state from x0, flat when None.

    An x0 not shaped (4 n_bus,) raises DimensionMismatch before any
    evaluation; a solve that stalls raises Diverged.
    """
    x0 = grid.flat_state(case.n_bus) if x0 is None else np.array(x0, dtype=float)
    if x0.shape != (4 * case.n_bus,):
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({4 * case.n_bus},)")
    residual = measurements.RegionResidual(case, mset)
    model = grid.PowerFlowModel(case)
    sparse = local_solver.sparse_jacobians
    sol = local_solver.solve_local(sparse(residual), sparse(model), y0=x0, mu=MU, tol=tol, max_inner=max_iter)
    if not sol.converged:
        raise Diverged(
            f"central estimator stalled after {sol.inner_iterations} iterations "
            f"(KKT residual {sol.kkt_residual:.3e})"
        )
    return CentralSolution(
        x=sol.y,
        fit=sol.fit,
        inner_iterations=sol.inner_iterations,
        kkt_residual=sol.kkt_residual,
    )

