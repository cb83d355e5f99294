"""Equality-constrained Gauss-Newton SQP for the regional subproblems.

Solves

    min_y  ||F(y)||^2 + lin^T y + (rho/2) ||y[prox] - target||^2
    s.t.   H(y) = 0

where F is a weighted measurement residual and H the power flow physics of
one region.  The quadratic model uses the Gauss-Newton Hessian
2 B^T B + rho P^T P + mu I (B the residual Jacobian, P the prox selector),
and steps are globalized with a backtracking Armijo search on the exact
l1 merit function.  Both Jacobians are scipy.sparse, as grid and
measurements assemble them (CSR).  Each step solves one KKT system with
linalg.solve_reduced_kkt, which eliminates the columns where the
constraint Jacobian is the identity (identity_columns: the p and q of
grid.PowerFlowModel) and solves in the remaining (theta, v) space on a
sparse plan.

Near the solution the stationarity residual stalls at the rounding of
its own sum, and the multipliers of the last KKT solve belong to the
previous iterate.  So once a step is rounding dust at a feasible iterate,
the multipliers are refitted there by least squares; the solve converges
when that brings the KKT residual to tol, usually at the first dust step.
Three dust steps in a row end the solve as converged at the rounding
floor whatever the residual.

solve_batch runs that SQP on many independent problems at once, one block
each of a block-diagonal problem (Blocks): the distributed loops pass
every region of an outer iteration as one batch over the disjoint union
of the fragments.  Each lock-step evaluates the residual, the physics and
their Jacobians once for all blocks and takes one reduced step; every
scalar of the SQP (tolerance, merit penalty, step length, dust-step count,
convergence) is a vector with one entry per block, and no block's numbers
reach another's.  A block that converges or fails stops moving, while the
others go on.  solve_local is the batch of one block.

The same routine serves three callers: the distributed consensus loop
(prox over all coordinates, lin from the coupling duals), the alternating
baseline (prox over the coupled copies only) and the monolithic reference
solver (no prox, small Levenberg ridge mu).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .errors import DimensionMismatch, GridestError, InnerDiverged, SingularKkt, ZeroVoltage

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
    fit: float
    inner_iterations: int
    kkt_residual: float
    #: The absolute KKT tolerance the solve stopped against.
    tol: float
    converged: bool


class Blocks:
    """How one batched problem splits into independent blocks.

    Block i owns the states state_ptr[i]:state_ptr[i+1], the constraint
    rows constraint_ptr[i]:constraint_ptr[i+1] and the residual rows
    labelled i in residual_block.  Each row may depend on its own block's
    states only, so both Jacobians are block diagonal up to a permutation
    of the residual rows.  voltage_cols lists the states that the residual
    divides by (grid.line_flows needs v_k > 0): residual.eval raises
    ZeroVoltage when one of them is <= 0, and the block owning it is the
    one whose solve fails.
    """

    def __init__(self, state_ptr, constraint_ptr, residual_block, voltage_cols=()):
        self.state_ptr = np.asarray(state_ptr, dtype=np.intp)
        self.constraint_ptr = np.asarray(constraint_ptr, dtype=np.intp)
        self.residual_block = np.asarray(residual_block, dtype=np.intp)
        self.voltage_cols = np.asarray(voltage_cols, dtype=np.intp)
        self.n = len(self.state_ptr) - 1
        blocks = np.arange(self.n)
        self.state_block = np.repeat(blocks, np.diff(self.state_ptr))
        self.constraint_block = np.repeat(blocks, np.diff(self.constraint_ptr))
        order = np.argsort(self.residual_block, kind="stable")
        self.residual_rows = np.split(order, np.cumsum(np.bincount(self.residual_block, minlength=self.n))[:-1])

    @classmethod
    def single(cls, n_states: int, n_constraints: int, n_rows: int) -> Blocks:
        return cls([0, n_states], [0, n_constraints], np.zeros(n_rows, dtype=np.intp))

    def states(self, i: int) -> slice:
        return slice(self.state_ptr[i], self.state_ptr[i + 1])

    def constraints(self, i: int) -> slice:
        return slice(self.constraint_ptr[i], self.constraint_ptr[i + 1])

    def zero_voltage(self, y: np.ndarray) -> np.ndarray:
        """Per block, whether one of its voltage_cols is <= 0 in y."""
        low = self.voltage_cols[y[self.voltage_cols] <= 0.0]
        return np.bincount(self.state_block[low], minlength=self.n) > 0

    def with_unit_voltages(self, y: np.ndarray, which: np.ndarray) -> np.ndarray:
        """y with the voltage_cols of the blocks marked in which set to 1."""
        y = y.copy()
        y[self.voltage_cols[which[self.state_block[self.voltage_cols]]]] = 1.0
        return y


def _segment_max(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The largest entry of each segment ptr[i]:ptr[i+1] of nonnegative
    values, 0 for an empty one."""
    if len(ptr) == 2:
        return values.max(initial=0.0, keepdims=True)
    out = np.zeros(len(ptr) - 1)
    full = np.flatnonzero(ptr[1:] > ptr[:-1])
    if len(full):
        out[full] = np.maximum.reduceat(values, ptr[full])
    return out


def _block(m, rows, cols: slice) -> scipy.sparse.csr_array:
    """The entries of the scipy.sparse m on rows (a slice or an index
    array) and cols, as CSR that stores each of them, explicit zeros
    included, in m's order.  m's entries on rows must all lie in cols, as
    a block of a block-diagonal matrix's do."""
    m = m.tocsr()
    rows = np.arange(m.shape[0])[rows]
    counts = m.indptr[rows + 1] - m.indptr[rows]
    take = linalg._ranges(m.indptr[rows], counts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return scipy.sparse.csr_array((m.data[take], m.indices[take] - cols.start, indptr),
                                  shape=(len(rows), cols.stop - cols.start))


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
    relative: bool = False,
) -> LocalSolution:
    """Run the SQP from y0 until the KKT residual drops below tol, or below
    tol * max(1, r0) when relative, r0 the KKT residual at y0 with zero
    multipliers.  The solution's tol is the absolute tolerance used.

    residual and constraints expose eval(y) and jacobian(y), the Jacobian
    scipy.sparse; constraints must also name identity_columns, one
    column per constraint row where its Jacobian is that row's unit
    vector (linalg.solve_reduced_kkt).  prox_idx selects the coordinates
    the proximal term acts on (None means all of them), each at most
    once; prox_target must match its length, and is needed when rho != 0.
    Returns the last iterate with converged=False when max_inner runs out;
    raises DimensionMismatch before any evaluation when lin, prox_idx or
    prox_target does not fit y0, TypeError when the Jacobians at y0 are
    not scipy.sparse, InnerDiverged when the line search cannot
    produce decrease (a trial with a NaN merit is no decrease),
    SingularKkt when a step's system stays singular and ZeroVoltage when
    the residual is undefined at y0.  This is solve_batch with one block.
    """
    (outcome,) = solve_batch(residual, constraints, y0, rho=rho, lin=lin, prox_target=prox_target,
                             prox_idx=prox_idx, mu=mu, tol=tol, max_inner=max_inner, relative=relative)
    if isinstance(outcome, GridestError):
        raise outcome
    return outcome


def solve_batch(
    residual,
    constraints,
    y0: np.ndarray,
    blocks: Blocks | None = None,
    rho: float = 0.0,
    lin: np.ndarray | None = None,
    prox_target: np.ndarray | None = None,
    prox_idx: np.ndarray | None = None,
    mu: float = 0.0,
    tol: float = 1e-8,
    max_inner: int = 50,
    relative: bool = False,
) -> list[LocalSolution | GridestError]:
    """solve_local on every block of a block-diagonal problem at once.

    The arguments are solve_local's for the whole problem, and blocks
    (one block when None) says which states and rows form each block.
    Every block stops by solve_local's rules on its own tolerance, relative
    to its own start residual when relative.  Returns one entry per block:
    its LocalSolution, whose y and kappa are the block's own, or the
    InnerDiverged, SingularKkt or ZeroVoltage that ended its solve.
    Arguments that do not fit y0 raise DimensionMismatch, as in solve_local.
    """
    y = np.array(y0, dtype=float)
    n = len(y)
    lin = np.zeros(n) if lin is None else np.asarray(lin, dtype=float)
    idx = np.arange(n) if prox_idx is None else np.asarray(prox_idx, dtype=int)
    target = None if prox_target is None else np.asarray(prox_target, dtype=float)
    if lin.shape != (n,):
        raise DimensionMismatch(f"lin has shape {lin.shape}, expected ({n},)")
    if idx.ndim != 1 or np.any((idx < 0) | (idx >= n)):
        raise DimensionMismatch(f"prox_idx must list states in 0..{n - 1}")
    if np.bincount(idx, minlength=n).max(initial=0) > 1:
        # The step would apply a repeated state's prox term once, the merit twice.
        raise DimensionMismatch("prox_idx lists a state more than once")
    if (rho != 0.0 or target is not None) and (target is None or target.shape != idx.shape):
        raise DimensionMismatch(f"prox_target {'missing' if target is None else target.shape}, expected {idx.shape}")
    if rho == 0.0:
        # Every prox term below then sums over no entries and adds 0.0.
        idx, target = np.arange(0, dtype=int), np.zeros(0)

    outcomes: list = [None] * (1 if blocks is None else blocks.n)
    try:
        b, h = residual.eval(y), constraints.eval(y)
    except ZeroVoltage as exc:
        if blocks is None:
            return [exc]
        bad = blocks.zero_voltage(y)
        outcomes = [ZeroVoltage(str(exc)) if fail else None for fail in bad]
        y = blocks.with_unit_voltages(y, bad)
        b, h = residual.eval(y), constraints.eval(y)
    blocks = blocks or Blocks.single(n, len(h), len(b))
    nb, state_block, con_block = blocks.n, blocks.state_block, blocks.constraint_block
    row_block = blocks.residual_block
    idx_block = state_block[idx]
    active = np.array([o is None for o in outcomes])

    def sums(labels, values):
        return np.bincount(labels, values, minlength=nb)

    def merit_terms(yv: np.ndarray, res: np.ndarray, hv: np.ndarray) -> np.ndarray:
        """Rows objective, fit, prox term and |h|_1 at (yv, res, hv), one column per block."""
        d = yv[idx] - target
        fit, prox = sums(row_block, res * res), 0.5 * rho * sums(idx_block, d * d)
        return np.array([fit + sums(state_block, lin * yv) + prox, fit, prox, sums(con_block, np.abs(hv))])

    def keep_active(new: np.ndarray, old: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
        """new in the blocks still active (entries labelled with them), old elsewhere."""
        return new if active.all() else np.where(active if labels is None else active[labels], new, old)

    def solution(i: int, converged: bool) -> LocalSolution:
        b_i = b[blocks.residual_rows[i]]
        return LocalSolution(
            y=y[blocks.states(i)].copy(), kappa=kappa[blocks.constraints(i)].copy(), fit=float(b_i @ b_i),
            inner_iterations=inner, kkt_residual=float(kkt_res[i]), tol=float(tol[i]), converged=converged,
        )

    def fail(i: int, exc: GridestError) -> None:
        outcomes[i] = exc
        active[i] = False

    big_b = residual.jacobian(y)
    big_c = constraints.jacobian(y)
    if not (scipy.sparse.issparse(big_b) and scipy.sparse.issparse(big_c)):
        raise TypeError("the residual and constraint Jacobians must be scipy.sparse")
    w = constraints.identity_columns
    kappa = np.zeros(big_c.shape[0])
    shift = np.full(n, mu)
    shift[idx] += rho
    tol = np.full(nb, float(tol))
    nu = np.full(nb, 10.0)
    dust_steps = np.zeros(nb, dtype=int)
    kkt_res = np.full(nb, np.inf)
    no_block = np.zeros(nb, dtype=bool)
    terms = merit_terms(y, b, h)
    inner = 0
    for inner in range(max_inner + 1):
        grad = 2.0 * linalg.matvec(big_b, b, trans=True) + lin
        grad[idx] += rho * (y[idx] - target)
        infeasibility = _segment_max(np.abs(h), blocks.constraint_ptr)
        kkt_res = np.maximum(
            _segment_max(np.abs(grad + linalg.matvec(big_c, kappa, trans=True)), blocks.state_ptr), infeasibility
        )
        if relative and inner == 0:
            tol *= np.maximum(1.0, kkt_res)
        # The stationarity sum cancels numbers of scale |B^T||b| + |C^T||k|,
        # so it cannot be driven below the rounding of that sum.  Once a
        # step is rounding dust at a feasible iterate, y has stopped moving
        # and kappa, from the KKT solve at the previous iterate, is refitted
        # by least squares at this one; the smaller residual of the two
        # multiplier vectors is kept.  After three dust steps the solution
        # is as stationary as float64 can express; stopping there is
        # convergence, not failure.
        dusty = active & (infeasibility <= tol) & (dust_steps >= 1)
        for i in np.flatnonzero(dusty & (kkt_res > tol)):
            s, c = blocks.states(i), blocks.constraints(i)
            kappa[c], kkt_res[i] = _refit_multipliers(grad[s], _block(big_c, c, s), h[c], kappa[c], kkt_res[i])
        for i in np.flatnonzero(active & ((kkt_res <= tol) | (dusty & (dust_steps >= 3)))):
            outcomes[i] = solution(i, converged=True)
            active[i] = False
        if inner == max_inner or not active.any():
            break
        # The union's factor judges its pivots against the largest entry of
        # any block, and its ridge would reach every block.  So a step that
        # needed the ridge, or failed even with it, is solved again block by
        # block, each with its own pivot threshold and ridge, for one block
        # as for many.  The union's ridge warning is dropped; a block that
        # needs the ridge warns in its own solve, so one block warns once.
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "KKT factorization failed")
                sol = linalg.solve_reduced_kkt(big_b, big_c, w, shift, grad, h)
            step, kappa_new, by_block = sol.step, sol.multipliers, sol.regularized
        except SingularKkt:
            by_block = True
        if by_block:
            step, kappa_new = np.zeros(n), np.zeros(len(kappa))
            for i in np.flatnonzero(active):
                s, c = blocks.states(i), blocks.constraints(i)
                try:
                    sol = linalg.solve_reduced_kkt(
                        _block(big_b, blocks.residual_rows[i], s), _block(big_c, c, s), w[c] - s.start,
                        shift[s], grad[s], h[c],
                    )
                except SingularKkt as block_exc:
                    fail(i, block_exc)
                    continue
                step[s], kappa_new[c] = sol.step, sol.multipliers
            if not active.any():
                break
        # The merit penalty must dominate the multipliers and never shrink.
        nu = np.maximum(nu, 2.0 * _segment_max(np.abs(kappa_new), blocks.constraint_ptr) + 1.0)
        obj, fit, prox, h_l1 = terms
        merit0 = obj + nu * h_l1
        slope = np.minimum(sums(state_block, grad * step) - nu * h_l1, 0.0)
        abs_y = np.abs(y)
        h_terms = sums(con_block, linalg.matvec(abs(big_c), abs_y))
        noise = fit + sums(state_block, np.abs(lin) * abs_y) + nu * (h_l1 + h_terms) + 1.0 + prox
        slack = MERIT_NOISE * noise
        alpha = np.ones(nb)
        searching = active.copy()
        for _ in range(MAX_BACKTRACKS + 1):
            trial = keep_active(y + alpha[state_block] * step, y, state_block)
            try:
                b_trial, h_trial = residual.eval(trial), constraints.eval(trial)
                bad = no_block
            except ZeroVoltage:
                # The blocks with a voltage <= 0 backtrack; the others are
                # evaluated with those blocks' voltages at 1.
                bad = blocks.zero_voltage(trial) if nb > 1 else np.ones(1, dtype=bool)
                if (searching & ~bad).any():
                    safe = blocks.with_unit_voltages(trial, bad)
                    b_trial, h_trial = residual.eval(safe), constraints.eval(safe)
            if (searching & ~bad).any():
                trial_terms = merit_terms(trial, b_trial, h_trial)
                merit = trial_terms[0] + nu * trial_terms[3]
                # Written so that a NaN merit, which compares False, backtracks.
                searching &= bad | ~(merit <= merit0 + ARMIJO_C1 * alpha * slope + slack)
            if not searching.any():
                break
            alpha[searching] *= BACKTRACK_FACTOR
        for i in np.flatnonzero(searching):
            fail(i, InnerDiverged(f"line search stalled after {MAX_BACKTRACKS} halvings (merit {merit0[i]:.6e})"))
        if not active.any():
            break
        # Each block that took a step keeps the last evaluation's values:
        # an evaluation after its acceptance repeats the same numbers.
        moved = alpha * _segment_max(np.abs(step), blocks.state_ptr)
        dust = moved <= 8.0 * np.finfo(float).eps * (1.0 + _segment_max(abs_y, blocks.state_ptr))
        dust_steps = keep_active(np.where(dust, dust_steps + 1, 0), dust_steps)
        y = keep_active(trial, y, state_block)
        b = keep_active(b_trial, b, row_block)
        h = keep_active(h_trial, h, con_block)
        kappa = keep_active(kappa_new, kappa, con_block)
        terms = keep_active(trial_terms, terms)
        big_b = residual.jacobian(y)
        big_c = constraints.jacobian(y)
    for i in np.flatnonzero(active):
        outcomes[i] = solution(i, converged=False)
    return outcomes


def _refit_multipliers(grad, big_c, h, kappa, kkt_res):
    """The least-squares multipliers at a fixed iterate, if they do better.

    The k that minimizes ||grad + C^T k|| solves C C^T k = -C grad.  C is
    [C_u | I] up to a column permutation (the identity columns of
    linalg.solve_reduced_kkt), so C C^T = I + C_u C_u^T is symmetric with
    every eigenvalue >= 1 and needs no ridge or pivoting care.  C is CSR,
    cut from the batch's Jacobian, so gram gives C C^T as CSR and
    linalg.solve_linear factors it by sparse LU.
    Returns (kappa, kkt_res) of whichever of the given and the refitted
    multipliers has the smaller KKT residual.
    """
    fitted = np.zeros(0)
    if big_c.shape[0]:
        fitted = linalg.solve_linear(linalg.gram(big_c.T), -linalg.matvec(big_c, grad))
    res = max(np.abs(grad + linalg.matvec(big_c, fitted, trans=True)).max(initial=0.0), np.abs(h).max(initial=0.0))
    return (fitted, res) if res < kkt_res else (kappa, kkt_res)
