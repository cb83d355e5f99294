"""Distributed Gauss-Newton consensus estimation (ALADIN outer loop).

Each outer iteration solves every region's proximal subproblem, collects
the Gauss-Newton sensitivities, and either stops or performs the coupled
consensus QP followed by the full step update z <- y + dy, lam <- lam_QP.
The region subproblems are independent, so they are solved as one batch
(local_solver.solve_batch) over the disjoint union of the region fragments,
built once per run: each lock-step evaluates one sparse residual and one
physics Jacobian for all regions and takes one block-diagonal reduced
step, while every region keeps its own tolerance, step length and stop.
Each region's solution is the one a solve of that region alone would
give, up to rounding.  The loop itself (region solves, iteration record,
divergence and budget notes) is shared with the ADMM baseline in admm.py;
each method supplies its subproblem terms and its coordination step.  Both
take one RunConfig; the inner solves' budget is the module constant
MAX_INNER.  A region whose inner solve ran out of iterations is named in
that iteration's note.

The region solves are inexact in the sense of the method's name: their
KKT tolerance tightens as the regions approach consensus.  Outer iteration
k solves to

    tol_k = min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * v_{k-1}))

with v_{k-1} the previous iteration's consensus violation, so no
iteration's tolerance is looser than INNER_TOL_START or tighter than the
floor INNER_TOL.  Far from consensus a 1e-8 KKT residual buys nothing the
next consensus step keeps; near it the tolerance is back at the floor.
The first iteration has no previous violation to measure against, so its
solves measure tol_1 = INNER_TOL_START against their own start instead:
each stops at a KKT residual <= INNER_TOL_START * max(1, r0), r0 the
residual at its start point (the forcing rule of Eisenstat and Walker,
SIAM J. Sci. Comput. 1996).  From a flat start r0 is of order 1e5 to 1e6,
and the absolute 1e-2 cost a region up to 8 Gauss-Newton steps whose
precision the first consensus step discards.  Later iterations keep the
absolute schedule: applied in every iteration, the relative stop left
the zero-noise estimate 2.4e-6 from the truth, where criterion 9 asks
for 1e-6.  Each solve still meets its own tolerance, recorded as
LocalSolution.tol, so its converged flag means what it says.  A region
solve or consensus QP whose KKT system stays singular after the ridge
fallback ends the run with a note, as an inner divergence does, and so
does a consensus step that leaves a voltage <= 0, where the next region
solve cannot evaluate its measurements.  The note names the failing
region of lowest index, as a region-by-region loop would meet it first.

Termination needs both the consensus mismatch ||sum_i A_i y_i||_inf and
the largest proximal displacement ||y_i - z_i||_inf to drop below eps.
The final iteration therefore uploads sensitivities but downloads nothing,
which the communication meter reflects.

Communication accounting follows two books kept side by side: the closed
formulas (per iteration: upload sum_i 6|N_i| + 16|N_i|^2 + n_c, download
n_c + 4|N_i| per region, |N_i| counting original plus auxiliary nodes and
n_c = n_coupling_rows = 4 per auxiliary pair, i.e. 2 per auxiliary bus)
and the measured number of floats crossing the region to coordinator
boundary (B_i^T B_i packed symmetric, C_i in full, B_i^T b_i, A_i y_i up;
lam and dy_i down).  The batch goes to the coordinator as one upload
formed on the regions' union, whose block-diagonal B^T B and C hold every
B_i^T B_i and C_i as CSR and go into the consensus system without a dense
copy.  The meter still counts each region's own payload, by its shapes
(coordinator.upload_floats), as the paper's dense payload, so the count
depends neither on the sparsity nor on the batching.  The two books agree
exactly with this payload set; both are reported so the agreement stays
an observable fact rather than an assumption.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import coordinator, grid, linalg, local_solver, measurements, partition as partition_mod
from .errors import DimensionMismatch, GridestError, SingularKkt, ValidationError

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
        # numpy scalars pass as numbers; Python's and numpy's booleans, and
        # anything that is not a real number, do not.
        for name, value in (("rho", self.rho), ("eps", self.eps)):
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
        if isinstance(self.max_outer, bool) or not isinstance(self.max_outer, numbers.Integral) or self.max_outer < 1:
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


def _initial_states(part, z0, truth) -> np.ndarray:
    """The starting region states concatenated on the regions' union, flat
    when z0 is None, after checking z0 against the partition and truth
    against the case: a shape that does not fit raises DimensionMismatch, a
    non-finite entry ValidationError."""
    n_global = 4 * part.case.n_bus
    if truth is not None and np.shape(truth) != (n_global,):
        raise DimensionMismatch(f"truth has shape {np.shape(truth)}, expected ({n_global},)")
    if truth is not None and not np.all(np.isfinite(truth)):
        raise ValidationError("truth has non-finite entries")
    if z0 is None:
        return np.concatenate([grid.flat_state(r.case.n_bus) for r in part.regions])
    partition_mod.check_region_states(part, z0)
    z = np.concatenate(z0)
    if not np.all(np.isfinite(z)):
        raise ValidationError("z0 has non-finite entries")
    return z


def _region_batch(part, mset):
    """Every region's subproblem as one problem over the disjoint union of
    the fragments: (residual, constraints, blocks) for local_solver.solve_batch.

    The union case numbers the fragments' buses by union position: region
    0's buses in id order, then region 1's, ..., bus k taking id k, so its
    states and physics rows are the regions', region after region.  Its
    lines and the union measurement set go through the same map, which
    fragment ids make one to one: each original id sits in one region and
    each auxiliary id is new.  Every measured node and line keeps its row,
    values and weights (measurements.row_regions first rejects a node
    outside every region or a line across two).  RegionResidual orders its
    rows by union position and endpoint ids, so whatever mset's order, the
    union residual lists region 0's node rows, then region 1's, ..., and
    then the line rows in the same region order, and Blocks labels each
    row with its region.
    """
    measurements.row_regions(mset, part)
    fragment_buses = [bus for region in part.regions for bus in region.case.buses]
    pos = {bus.id: k for k, bus in enumerate(fragment_buses)}
    buses = tuple(grid.Bus(k, bus.kind, bus.p_load, bus.q_load, bus.p_gen, bus.q_gen, bus.v_setpoint)
                  for k, bus in enumerate(fragment_buses))
    lines = tuple(grid.Line(pos[line.from_bus], pos[line.to_bus], line.r, line.x)
                  for region in part.regions for line in region.case.lines)
    case = grid.GridCase(name=f"{part.case.name}/regions", base_mva=part.case.base_mva, buses=buses, lines=lines)
    union_set = replace(mset, node_ids=tuple(pos[node] for node in mset.node_ids),
                        line_ends=tuple((pos[k], pos[l]) for k, l in mset.line_ends))
    residual = measurements.RegionResidual(case, union_set)
    sizes = [region.case.n_bus for region in part.regions]
    bus_ptr = np.concatenate(([0], np.cumsum(sizes)))
    bus_block = np.repeat(np.arange(part.n_regions), sizes)
    blocks = local_solver.Blocks(
        4 * bus_ptr, 2 * bus_ptr,
        np.concatenate([np.repeat(bus_block[residual.node_pos], 4), np.repeat(bus_block[residual.line_k], 3)]),
    )
    return residual, grid.PowerFlowModel(case), blocks


def _outer_loop(part, batch, config, z, truth, prox_terms, coordinate):
    """The outer loop shared by ALADIN and the ADMM baseline.

    The iterate z is one vector on the regions' union, the region states
    z_i concatenated in region order; both methods couple the regions
    through the stacked border Partition.border = [A_1 ... A_N] on that
    union.  batch is _region_batch(part, mset), built once per run by the
    caller, which may evaluate its models too.  Each outer iteration
    solves the regions' subproblems from z as one batch
    (local_solver.solve_batch over batch).
    prox_terms(z) gives the batch's (lin, prox_target, prox_idx) on the
    union, which go to solve_batch as they are; prox_idx (None for every
    state) indexes the union.  The iteration record reads the union
    solution y, the solutions' y_i concatenated: the consensus gap is
    border @ y and the step norm ||y - z||_inf.  The loop hands the
    solutions (one LocalSolution per region), y, the gap and the record
    to coordinate(sols, y, gap, record), which fills in the record's
    communication fields and returns the next union iterate and whether
    the method has terminated.  ALADIN's coordinate forms its one upload
    from batch's models at y; the solutions carry no Jacobians.  config is
    the run's RunConfig; each region solve uses config.rho, MAX_INNER and
    the tolerance min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * v)), v the previous
    iteration's consensus violation, with the module constants read at
    call time.  In the first iteration, which has no v, that tolerance is
    INNER_TOL_START relative to each solve's start residual r0: the solve
    stops at INNER_TOL_START * max(1, r0).  Only the first, because a
    relative stop in every iteration loosens the converged estimate past
    criterion 9's 1e-6 (see the module docstring).  An InnerDiverged,
    SingularKkt or ZeroVoltage that ends a region's solve, or a SingularKkt
    from coordinate, ends the run unconverged with a note naming the
    lowest-index failing region or the consensus QP; the history then
    holds the iterations completed before it.  The region that a
    ZeroVoltage fails is the one owning the states it names (grid names
    every line-end v_k <= 0 of the union); an InnerDiverged also ends a
    region whose Gauss-Newton system is not finite.  Returns (zs, converged,
    history, note), zs the last iterate split by region.
    """
    residual, model, blocks = batch
    bounds = blocks.state_ptr[1:-1]
    history: list[IterationRecord] = []
    violation = math.inf
    for k in range(1, config.max_outer + 1):
        tol = min(INNER_TOL_START, max(INNER_TOL, INNER_FORCING * violation))
        lin, target, idx = prox_terms(z)
        outcomes = local_solver.solve_batch(
            residual, model, z, blocks, rho=config.rho, lin=lin, prox_target=target, prox_idx=idx,
            tol=tol, max_inner=MAX_INNER, relative=k == 1,
        )
        failed = [(i, exc) for i, exc in enumerate(outcomes) if isinstance(exc, GridestError)]
        if failed:
            # A ZeroVoltage means the last coordination step left a voltage
            # <= 0, where the region's measurements are undefined.
            i, exc = failed[0]
            what = "singular" if isinstance(exc, SingularKkt) else "diverged"
            note = f"inner solve {what} at outer iteration {k} in region {i}: {exc}"
            return np.split(z, bounds), False, history, note
        sols = outcomes
        y = np.concatenate([sol.y for sol in sols])
        gap = linalg.matvec(part.border, y)
        state_error = np.nan
        if truth is not None:
            estimate = partition_mod.restrict_state(part, np.split(y, bounds))
            state_error = np.abs(estimate - truth).max(initial=0.0)
        record = IterationRecord(
            iteration=k,
            consensus_violation=np.abs(gap).max(initial=0.0),
            step_norm=np.abs(y - z).max(initial=0.0),
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
            z, done = coordinate(sols, y, gap, record)
        except SingularKkt as exc:
            return np.split(z, bounds), False, history, f"consensus QP singular at outer iteration {k}: {exc}"
        stalled = [str(i) for i, sol in enumerate(sols) if not sol.converged]
        if stalled:
            note = "inner solve not converged in regions " + "|".join(stalled)
            record.note = f"{record.note}; {note}" if record.note else note
        history.append(record)
        if done:
            return np.split(z, bounds), True, history, ""
    return np.split(z, bounds), False, history, f"consensus not reached within {config.max_outer} outer iterations"


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
    DimensionMismatch, and one with a non-finite entry ValidationError,
    before the first region solve.
    """
    config = config or RunConfig()
    z = _initial_states(part, z0, truth)
    batch = _region_batch(part, mset)
    residual, model, _ = batch
    lam = np.zeros(part.n_coupling_rows)
    # [A_1 ... A_N]^T as CSR once per run; a transposed view costs more per
    # product than the product itself.  Each state of the union has at most
    # one coupling entry, so each entry of the product is a single term.
    border_t = part.border.T.tocsr()

    def prox_terms(z: np.ndarray):
        return linalg.matvec(border_t, lam), z, None

    def coordinate(sols, y, gap, record):
        nonlocal lam
        # The meter counts the paper's per-region payload by each region's
        # own shapes (kappa has one entry per physics row), so the final
        # iteration, which stops before the consensus QP, counts its upload
        # without building it.
        record.upload_floats = sum(
            coordinator.upload_floats(sol.y.size, (sol.kappa.size, sol.y.size), part.n_coupling_rows) for sol in sols
        )
        if record.consensus_violation <= config.eps and record.step_norm <= config.eps:
            return y, True
        # The paper's upload for the whole batch at once: on the union the
        # residual and physics Jacobians are block diagonal by region, so
        # B^T B and C hold every region's B_i^T B_i and C_i on the diagonal,
        # B^T b stacks the B_i^T b_i, and the gap is sum_i A_i y_i.  The
        # models are pure functions of y, so they repeat the values the
        # region solves stopped at.
        jac = residual.jacobian(y)
        upload = coordinator.SensitivityUpload(
            fit_hessian=linalg.gram(jac), fit_gradient=linalg.matvec(jac, residual.eval(y), trans=True),
            constraint_jacobian=model.jacobian(y), coupling_image=gap,
        )
        consensus = coordinator.solve_consensus([upload], [part.border])
        record.download_floats = sum(consensus.multipliers.size + sol.y.size for sol in sols)
        record.regularized = consensus.regularized
        if consensus.regularized:
            record.note = "ridge-regularized consensus step"
        lam = consensus.multipliers
        return y + consensus.step, False

    zs, converged, history, note = _outer_loop(part, batch, config, z, truth, prox_terms, coordinate)
    return AladinResult(
        zs=zs,
        lam=lam,
        converged=converged,
        iterations=len(history),
        history=history,
        formula=comm_counts(part),
        note=note,
    )
