"""Distributed Gauss-Newton consensus estimation (ALADIN outer loop).

Each outer iteration solves every region's proximal subproblem, one region
after another, collects the Gauss-Newton sensitivities, and either stops or
performs the coupled consensus QP followed by the full step update
z <- y + dy, lam <- lam_QP.  The loop itself (region solves, iteration
record, divergence and budget notes) is shared with the ADMM baseline in
admm.py; each method supplies its subproblem terms and its coordination
step.  Both take one RunConfig; the inner solves' tolerance and budget
are the module constants INNER_TOL and MAX_INNER.  A region whose inner
solve ran out of iterations is named in that iteration's note.

Termination needs both the consensus mismatch ||sum_i A_i y_i||_inf and
the largest proximal displacement ||y_i - z_i||_inf to drop below eps.
The final iteration therefore uploads sensitivities but downloads nothing,
which the communication meter reflects.

Communication accounting follows two books kept side by side: the closed
formulas (per iteration: upload sum_i 6|N_i| + 16|N_i|^2 + n_c, download
n_c + 4|N_i| per region, |N_i| counting original plus auxiliary nodes and
n_c = n_coupling_rows = 4 per auxiliary pair, i.e. 2 per auxiliary bus)
and the measured number of floats actually crossing the region to
coordinator boundary (B_i^T B_i packed symmetric, C_i dense, B_i^T b_i,
A_i y_i up; lam and dy_i down).  The two agree exactly with this payload
set; both are reported so the agreement stays an observable fact rather
than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coordinator, grid, local_solver, measurements, partition as partition_mod
from .errors import DimensionMismatch, InnerDiverged, ValidationError

#: KKT residual tolerance and Gauss-Newton iteration budget of every region solve.
INNER_TOL = 1e-8
MAX_INNER = 50


@dataclass(frozen=True)
class RunConfig:
    """Penalty, termination tolerance and outer budget of one run.  ALADIN
    stops when the consensus violation and the step norm are both <= eps,
    ADMM when the consensus violation is."""

    rho: float = 1e4
    eps: float = 1e-4
    max_outer: int = 50

    def __post_init__(self):
        for name, value in (("rho", self.rho), ("eps", self.eps)):
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
        if not isinstance(self.max_outer, int) or self.max_outer < 1:
            raise ValidationError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")


@dataclass
class IterationRecord:
    iteration: int
    consensus_violation: float
    step_norm: float
    objective: float
    inner_iterations: tuple[int, ...]
    state_error: float
    upload_floats: int
    download_floats: int
    regularized: bool
    note: str = ""


@dataclass(frozen=True)
class CommFormula:
    """Closed-form per-iteration float counts."""

    upload_per_region: tuple[int, ...]
    download_per_region: tuple[int, ...]

    @property
    def upload_total(self) -> int:
        return sum(self.upload_per_region)

    @property
    def download_total(self) -> int:
        return sum(self.download_per_region)


def comm_counts(part: partition_mod.Partition) -> CommFormula:
    """Formula counts for one partition; node counts include auxiliary buses."""
    n_rows = part.n_coupling_rows
    upload = tuple(
        6 * region.case.n_bus + 16 * region.case.n_bus**2 + n_rows
        for region in part.regions
    )
    download = tuple(n_rows + 4 * region.case.n_bus for region in part.regions)
    return CommFormula(upload_per_region=upload, download_per_region=download)


@dataclass
class RunResult:
    """Final iterates and history of one run; admm.run_admm returns it as is."""

    zs: list[np.ndarray]
    converged: bool
    iterations: int
    history: list[IterationRecord]
    note: str = ""

    @property
    def final_violation(self) -> float:
        return self.history[-1].consensus_violation if self.history else np.nan


@dataclass(kw_only=True)
class AladinResult(RunResult):
    lam: np.ndarray
    formula: CommFormula


def _initial_states(part, z0, truth) -> list[np.ndarray]:
    """The starting region states, flat when z0 is None, after checking z0
    against the partition and truth against the case."""
    n_global = 4 * part.case.n_bus
    if truth is not None and np.shape(truth) != (n_global,):
        raise DimensionMismatch(f"truth has shape {np.shape(truth)}, expected ({n_global},)")
    if z0 is None:
        return [grid.flat_state(r.case.n_bus) for r in part.regions]
    partition_mod.check_region_states(part, z0)
    return [np.array(z) for z in z0]


def _outer_loop(part, mset, config, zs, truth, prox_terms, coordinate):
    """The outer loop shared by ALADIN and the ADMM baseline.

    Each outer iteration solves the regions' subproblems one after another
    from the current z_i, with prox_terms(i, z_i) giving the subproblem's
    (lin, prox_target, prox_idx).  It logs the iteration and hands the
    solutions, the consensus gap sum_i A_i y_i and the record to
    coordinate(sols, gap, record), which fills in the record's
    communication fields and returns the next iterates and whether the
    method has terminated.  config is the run's RunConfig; each region
    solve uses config.rho and the module's INNER_TOL and MAX_INNER, read at
    call time.  Returns (zs, converged, history, note).
    """
    region_sets = measurements.split_by_region(mset, part)
    residuals = [measurements.RegionResidual(r.case, s) for r, s in zip(part.regions, region_sets)]
    models = [grid.PowerFlowModel(r.case) for r in part.regions]
    history: list[IterationRecord] = []
    for k in range(1, config.max_outer + 1):
        sols = []
        for i, z in enumerate(zs):
            lin, prox_target, prox_idx = prox_terms(i, z)
            try:
                sols.append(local_solver.solve_local(
                    residuals[i], models[i], y0=z, rho=config.rho, lin=lin,
                    prox_target=prox_target, prox_idx=prox_idx,
                    tol=INNER_TOL, max_inner=MAX_INNER,
                ))
            except InnerDiverged as exc:
                return zs, False, history, f"inner solve diverged at outer iteration {k}: {exc}"
        ys = [sol.y for sol in sols]
        gap = partition_mod.consensus_gap(part, ys)
        state_error = np.nan
        if truth is not None:
            estimate = partition_mod.restrict_state(part, ys)
            state_error = np.abs(estimate - truth).max(initial=0.0)
        record = IterationRecord(
            iteration=k,
            consensus_violation=np.abs(gap).max(initial=0.0),
            step_norm=max(np.abs(y - z).max(initial=0.0) for y, z in zip(ys, zs)),
            objective=sum(sol.fit for sol in sols),
            inner_iterations=tuple(sol.inner_iterations for sol in sols),
            state_error=state_error,
            upload_floats=0,
            download_floats=0,
            regularized=False,
        )
        zs, done = coordinate(sols, gap, record)
        stalled = [str(i) for i, sol in enumerate(sols) if not sol.converged]
        if stalled:
            note = "inner solve not converged in regions " + "|".join(stalled)
            record.note = f"{record.note}; {note}" if record.note else note
        history.append(record)
        if done:
            return zs, True, history, ""
    return zs, False, history, f"consensus not reached within {config.max_outer} outer iterations"


def run_aladin(
    part: partition_mod.Partition,
    mset: measurements.MeasurementSet,
    config: RunConfig | None = None,
    z0: list[np.ndarray] | None = None,
    truth: np.ndarray | None = None,
) -> AladinResult:
    """Run the distributed estimator until consensus or max_outer.

    z0 defaults to flat fragment states; the multipliers start at zero.
    truth, when given, is the true global state used only to log the
    estimation error of the original nodes; it never influences the
    iteration.  A z0 or truth that does not fit the partition raises
    DimensionMismatch before the first region solve.
    """
    config = config or RunConfig()
    zs = _initial_states(part, z0, truth)
    lam = np.zeros(part.n_coupling_rows)

    def prox_terms(i: int, z_i: np.ndarray):
        return part.coupling[i].T @ lam, z_i, None

    def coordinate(sols, gap, record):
        nonlocal lam
        uploads = [
            coordinator.SensitivityUpload(
                region=i,
                fit_hessian=sol.residual_jacobian.T @ sol.residual_jacobian,
                fit_gradient=sol.residual_jacobian.T @ sol.residual,
                constraint_jacobian=sol.constraint_jacobian,
                coupling_image=part.coupling[i] @ sol.y,
            )
            for i, sol in enumerate(sols)
        ]
        record.upload_floats = sum(up.float_count() for up in uploads)
        ys = [sol.y for sol in sols]
        if record.consensus_violation <= config.eps and record.step_norm <= config.eps:
            return ys, True
        consensus = coordinator.solve_consensus(uploads, list(part.coupling))
        record.download_floats = sum(consensus.float_count(i) for i in range(part.n_regions))
        record.regularized = consensus.regularized
        if consensus.regularized:
            record.note = "ridge-regularized consensus step"
        lam = consensus.lam
        return [y + dy for y, dy in zip(ys, consensus.steps)], False

    zs, converged, history, note = _outer_loop(part, mset, config, zs, truth, prox_terms, coordinate)
    return AladinResult(
        zs=zs,
        lam=lam,
        converged=converged,
        iterations=len(history),
        history=history,
        formula=comm_counts(part),
        note=note,
    )
