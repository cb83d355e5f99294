"""Distributed Gauss-Newton consensus estimation (ALADIN outer loop).

Each outer iteration solves every region's proximal subproblem, one region
after another, collects the Gauss-Newton sensitivities, and either stops or
performs the coupled consensus QP followed by the full step update
z <- y + dy, lam <- lam_QP.  The loop itself (region solves, iteration
record, divergence and budget notes) is shared with the ADMM baseline in
admm.py; each method supplies its subproblem terms and its coordination
step.  Both take one RunConfig; the inner solves' budget is the module
constant MAX_INNER.  A region whose inner solve ran out of iterations is
named in that iteration's note.

The region solves are inexact in the sense of the method's name: their
KKT tolerance tightens as the regions approach consensus.  Outer iteration
k solves to

    tol_k = min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * v_{k-1}))

with v_{k-1} the previous iteration's consensus violation, so the first
iteration solves to INNER_TOL_START and no solve is looser than that or
tighter than the floor INNER_TOL.  Far from consensus a 1e-8 KKT residual
buys nothing the next consensus step keeps; near it the tolerance is back
at the floor.  Each solve still meets its own tolerance, so its converged
flag means what it says.  A region solve or consensus QP whose KKT system
stays singular after the ridge fallback ends the run with a note, as an
inner divergence does, and so does a consensus step that leaves a voltage
<= 0, where the next region solve cannot evaluate its measurements.

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

from . import coordinator, grid, linalg, local_solver, measurements, partition as partition_mod
from .errors import DimensionMismatch, InnerDiverged, SingularKkt, ValidationError, ZeroVoltage

#: Region-solve KKT tolerance schedule: the first outer iteration's
#: tolerance, the floor, and the factor on the previous consensus violation.
INNER_TOL_START = 1e-2
INNER_TOL = 1e-8
INNER_FORCING = 0.1
#: Gauss-Newton iteration budget of every region solve.
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
    #: KKT tolerance of the iteration's region solves; not in the history CSV.
    inner_tol: float
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
    solve uses config.rho, MAX_INNER and the tolerance
    min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * v)), v the previous
    iteration's consensus violation (infinite before the first), with the
    module constants read at call time.  An InnerDiverged, SingularKkt or
    ZeroVoltage from a region solve, or a SingularKkt from coordinate, ends
    the run unconverged with a note naming the region or the consensus QP; the
    history then holds the iterations completed before it.  Returns
    (zs, converged, history, note).
    """
    region_sets = measurements.split_by_region(mset, part)
    residuals = [measurements.RegionResidual(r.case, s) for r, s in zip(part.regions, region_sets)]
    models = [grid.PowerFlowModel(r.case) for r in part.regions]
    history: list[IterationRecord] = []
    violation = math.inf
    for k in range(1, config.max_outer + 1):
        tol = min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * violation))
        sols = []
        for i, z in enumerate(zs):
            lin, prox_target, prox_idx = prox_terms(i, z)
            try:
                sols.append(local_solver.solve_local(
                    residuals[i], models[i], y0=z, rho=config.rho, lin=lin,
                    prox_target=prox_target, prox_idx=prox_idx,
                    tol=tol, max_inner=MAX_INNER,
                ))
            except (InnerDiverged, SingularKkt, ZeroVoltage) as exc:
                # A ZeroVoltage means the last coordination step left a
                # voltage <= 0, where the region's measurements are undefined.
                what = "singular" if isinstance(exc, SingularKkt) else "diverged"
                return zs, False, history, f"inner solve {what} at outer iteration {k} in region {i}: {exc}"
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
            inner_tol=tol,
        )
        violation = record.consensus_violation
        try:
            zs, done = coordinate(sols, gap, record)
        except SingularKkt as exc:
            return zs, False, history, f"consensus QP singular at outer iteration {k}: {exc}"
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
        return linalg.matvec(part.coupling[i], lam, trans=True), z_i, None

    def coordinate(sols, gap, record):
        nonlocal lam
        uploads = [
            coordinator.SensitivityUpload(
                region=i,
                fit_hessian=linalg.gram(sol.residual_jacobian),
                fit_gradient=linalg.matvec(sol.residual_jacobian, sol.residual, trans=True),
                constraint_jacobian=sol.constraint_jacobian,
                coupling_image=linalg.matvec(part.coupling[i], sol.y),
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
