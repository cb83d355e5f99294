"""Equality-constrained Gauss-Newton SQP for the regional subproblems.

Solves

    min_y  ||F(y)||^2 + lin^T y + (rho/2) ||y[prox] - target||^2
    s.t.   H(y) = 0

where F is a weighted measurement residual and H the power flow physics of
one region.  The quadratic model uses the Gauss-Newton Hessian
2 B^T B + rho P^T P + mu I (B the residual Jacobian, P the prox selector),
each step solves one KKT system, and steps are globalized with a
backtracking Armijo search on the exact l1 merit function.  The Hessian
and the KKT factorization are dense or sparse as the Jacobians are.

The same routine serves three callers: the distributed consensus loop
(prox over all coordinates, lin from the coupling duals), the alternating
baseline (prox over the coupled copies only) and the monolithic reference
solver (no prox, small Levenberg ridge mu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .errors import InnerDiverged, ZeroVoltage

ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 20
# Armijo acceptance slack relative to the merit's own evaluation noise.
# The merit is a sum of nonnegative pieces whose float rounding scales
# with the pieces, not with the (possibly tiny) total, so the slack must
# be measured against the pieces or the search falsely stalls at the
# noise floor while the KKT residual is still polishable.  For the
# penalty nu |h|_1 the pieces are the terms summed into each h_k, of
# size (|C| |y|)_k, not |h_k|, which is pure rounding at a feasible point.
MERIT_NOISE = 1e-12


@dataclass
class LocalSolution:
    y: np.ndarray
    kappa: np.ndarray
    residual: np.ndarray
    residual_jacobian: np.ndarray | scipy.sparse.sparray
    constraint_jacobian: np.ndarray | scipy.sparse.sparray
    fit: float
    inner_iterations: int
    kkt_residual: float
    converged: bool


def solve_local(
    residual,
    constraints,
    y0: np.ndarray,
    rho: float = 0.0,
    lin: np.ndarray | None = None,
    prox_target: np.ndarray | None = None,
    prox_idx: np.ndarray | None = None,
    mu: float = 0.0,
    tol: float = 1e-8,
    max_inner: int = 50,
) -> LocalSolution:
    """Run the SQP from y0 until the KKT residual drops below tol.

    residual and constraints expose eval(y) and jacobian(y); the
    Jacobians may be dense or scipy.sparse, and the Gauss-Newton Hessian
    and the KKT factorization follow the residual Jacobian's kind.  prox_idx
    selects the coordinates the proximal term acts on (None means all of
    them); prox_target must match its length.  Returns the last iterate
    with converged=False when max_inner runs out; raises InnerDiverged when
    the line search cannot produce decrease.
    """
    y = np.array(y0, dtype=float)
    n = len(y)
    lin = np.zeros(n) if lin is None else np.asarray(lin, dtype=float)
    if rho != 0.0:
        idx = np.arange(n) if prox_idx is None else np.asarray(prox_idx, dtype=int)
        target = np.asarray(prox_target, dtype=float)
    else:
        # Every prox term below then sums over no entries and adds 0.0.
        idx = np.arange(0, dtype=int)
        target = np.zeros(0)

    def objective(yv: np.ndarray, res: np.ndarray) -> float:
        d = yv[idx] - target
        return float(res @ res) + float(lin @ yv) + 0.5 * rho * float(d @ d)

    b = residual.eval(y)
    big_b = residual.jacobian(y)
    h = constraints.eval(y)
    big_c = constraints.jacobian(y)
    kappa = np.zeros(big_c.shape[0])
    nu = 10.0
    inner = 0
    kkt_res = np.inf
    dust_steps = 0
    for inner in range(max_inner + 1):
        grad = 2.0 * linalg.matvec(big_b, b, trans=True) + lin
        grad[idx] += rho * (y[idx] - target)
        kkt_res = max(
            np.abs(grad + linalg.matvec(big_c, kappa, trans=True)).max(initial=0.0),
            np.abs(h).max(initial=0.0),
        )
        # The stationarity sum cancels numbers of scale |B^T||b| + |C^T||k|,
        # so it cannot be driven below the rounding of that sum.  Once the
        # accepted steps are pure rounding dust at a feasible iterate, the
        # solution is as stationary as float64 can express; stopping there
        # is convergence, not failure.  kappa still comes from the KKT solve
        # at the previous iterate, so it is refitted by least squares,
        # min ||grad + C^T kappa||, at this one; the smaller residual of the
        # two multiplier vectors is the one returned and reported.
        at_floor = dust_steps >= 3 and np.abs(h).max(initial=0.0) <= tol
        if at_floor and kkt_res > tol:
            kappa, kkt_res = _refit_multipliers(grad, big_c, h, kappa, kkt_res)
        if kkt_res <= tol or at_floor:
            return LocalSolution(
                y=y, kappa=kappa, residual=b, residual_jacobian=big_b,
                constraint_jacobian=big_c, fit=float(b @ b),
                inner_iterations=inner, kkt_residual=kkt_res, converged=True,
            )
        if inner == max_inner:
            break
        hess = linalg.gram(big_b, 2.0)
        shift = np.full(n, mu)
        shift[idx] += rho
        if scipy.sparse.issparse(hess):
            hess = hess + scipy.sparse.diags_array(shift)
        else:
            hess[np.diag_indices(n)] += shift
        sol = linalg.solve_kkt(
            linalg.KktSystem(
                hessian=hess, constraint_jacobian=big_c, gradient=grad, residual=h
            )
        )
        step, kappa_new = sol.step, sol.multipliers
        # The merit penalty must dominate the multipliers and never shrink.
        nu = max(nu, 2.0 * np.abs(kappa_new).max(initial=0.0) + 1.0)
        h_l1 = np.abs(h).sum()
        merit0 = objective(y, b) + nu * h_l1
        slope = float(grad @ step) - nu * h_l1
        slope = min(slope, 0.0)
        alpha = 1.0
        h_terms = float(np.sum(linalg.matvec(abs(big_c), np.abs(y))))
        d = y[idx] - target
        noise = (float(b @ b) + float(np.abs(lin) @ np.abs(y)) + nu * (h_l1 + h_terms) + 1.0
                 + 0.5 * rho * float(d @ d))
        slack = MERIT_NOISE * noise
        for _ in range(MAX_BACKTRACKS + 1):
            trial = y + alpha * step
            try:
                b_trial = residual.eval(trial)
                h_trial = constraints.eval(trial)
            except ZeroVoltage:
                alpha *= BACKTRACK_FACTOR
                continue
            merit = objective(trial, b_trial) + nu * np.abs(h_trial).sum()
            if merit <= merit0 + ARMIJO_C1 * alpha * slope + slack:
                break
            alpha *= BACKTRACK_FACTOR
        else:
            raise InnerDiverged(
                f"line search stalled after {MAX_BACKTRACKS} halvings (merit {merit0:.6e})"
            )
        moved = alpha * np.abs(step).max(initial=0.0)
        if moved <= 8.0 * np.finfo(float).eps * (1.0 + np.abs(y).max(initial=0.0)):
            dust_steps += 1
        else:
            dust_steps = 0
        y = trial
        kappa = kappa_new
        b = b_trial
        h = h_trial
        big_b = residual.jacobian(y)
        big_c = constraints.jacobian(y)
    return LocalSolution(
        y=y, kappa=kappa, residual=b, residual_jacobian=big_b,
        constraint_jacobian=big_c, fit=float(b @ b),
        inner_iterations=inner, kkt_residual=kkt_res, converged=False,
    )


def _refit_multipliers(grad, big_c, h, kappa, kkt_res):
    """The least-squares multipliers at a fixed iterate, if they do better.

    Solves [I C^T; C 0] [s; k] = [-grad; 0], whose k minimizes
    ||grad + C^T k||.  Returns (kappa, kkt_res) of whichever of the given
    and the refitted multipliers has the smaller KKT residual.
    """
    n = len(grad)
    eye = scipy.sparse.eye_array(n) if scipy.sparse.issparse(big_c) else np.eye(n)
    fitted = linalg.solve_kkt(
        linalg.KktSystem(hessian=eye, constraint_jacobian=big_c, gradient=grad, residual=np.zeros(len(h)))
    ).multipliers
    res = max(np.abs(grad + linalg.matvec(big_c, fitted, trans=True)).max(initial=0.0), np.abs(h).max(initial=0.0))
    return (fitted, res) if res < kkt_res else (kappa, kkt_res)
