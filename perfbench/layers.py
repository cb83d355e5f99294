"""Which calls the traced run wraps, and the per-layer metrics of one pass.

Every call site in the package reaches these functions through a module
or class attribute, so replacing the attribute is enough to see each call.
"""

from __future__ import annotations

from collections import defaultdict

from gridest import (
    caseio,
    coordinator,
    grid,
    linalg,
    local_solver,
    measurements,
    partition,
    posterior,
    powerflow,
)

from spans import Recorder, Span, self_times, union_length

# A KKT system counts as small up to this many bordered rows.
SMALL_KKT_ROWS = 256


def _kkt(args, kwargs, result) -> dict:
    system = args[0]
    return {"rows": system.n_states + system.n_constraints, "regularized": bool(result.regularized)}


def _consensus(args, kwargs, result) -> dict:
    uploads, couplings = args[0], args[1]
    rows = sum(up.fit_hessian.shape[0] + up.constraint_jacobian.shape[0] for up in uploads)
    return {"rows": rows + couplings[0].shape[0]}


def _covariance(args, kwargs, result) -> dict:
    constraint_jacobians = args[1]
    couplings = args[2] if len(args) > 2 else kwargs.get("couplings")
    rows = result.shape[0] + sum(c.shape[0] for c in constraint_jacobians)
    if couplings:
        rows += couplings[0].shape[0]
    return {"rows": rows, "rhs": result.shape[0]}


def _local(args, kwargs, result) -> dict:
    return {"inner": result.inner_iterations, "converged": bool(result.converged)}


def _power_flow(args, kwargs, result) -> dict:
    return {"newton": result.iterations}


# (owner, attribute, span name, annotate)
TARGETS = (
    (local_solver, "solve_local", "local_solver.solve_local", _local),
    (coordinator, "solve_consensus", "coordinator.solve_consensus", _consensus),
    (linalg, "solve_kkt", "linalg.solve_kkt", _kkt),
    (linalg, "solve_linear", "linalg.solve_linear", None),
    (powerflow, "solve_power_flow", "powerflow.solve_power_flow", _power_flow),
    (partition, "partition_grid", "partition.partition_grid", None),
    (measurements, "simulate_measurements", "measurements.simulate_measurements", None),
    (posterior, "covariance_bound", "posterior.covariance_bound", _covariance),
    (caseio, "load_case", "caseio.load_case", None),
    (measurements.RegionResidual, "eval", "measurements.residual_eval", None),
    (measurements.RegionResidual, "jacobian", "measurements.residual_jacobian", None),
    (grid.PowerFlowModel, "eval", "grid.pf_eval", None),
    (grid.PowerFlowModel, "jacobian", "grid.pf_jacobian", None),
)


def snapshot() -> dict[tuple[str, str], object]:
    """The current object behind every wrapped attribute."""
    return {(owner.__name__, attr): vars(owner)[attr] for owner, attr, _, _ in TARGETS}


def install(recorder: Recorder) -> None:
    for owner, attr, name, annotate in TARGETS:
        recorder.wrap(owner, attr, name, annotate)


# Unit of every per-layer metric; the names are those of BENCHMARK.json.
UNITS = {
    "powerflow.solve_s": "s",
    "powerflow.newton_iterations": "count",
    "linalg.solve_linear_s": "s",
    "linalg.kkt_small_s": "s",
    "linalg.kkt_small_calls": "count",
    "linalg.kkt_large_s": "s",
    "linalg.kkt_large_calls": "count",
    "linalg.kkt_max_rows": "count",
    "linalg.kkt_regularized": "count",
    "linalg.factor_gflop": "GFlop-computed",
    "grid.pf_eval_s": "s",
    "grid.pf_jacobian_s": "s",
    "grid.pf_jacobian_calls": "count",
    "measurements.simulate_s": "s",
    "measurements.residual_eval_s": "s",
    "measurements.residual_jacobian_s": "s",
    "measurements.residual_calls": "count",
    "partition.partition_s": "s",
    "caseio.load_s": "s",
    "local_solver.region_busy_s": "s",
    "local_solver.region_calls": "count",
    "local_solver.inner_iterations": "count",
    "local_solver.nonconverged": "count",
    "local_solver.region_overlap": "ratio",
    "local_solver.self_s": "s",
    "coordinator.consensus_s": "s",
    "coordinator.kkt_rows": "count",
    "coordinator.self_s": "s",
    "aladin.self_s": "s",
    "admm.self_s": "s",
    "posterior.covariance_s": "s",
    "posterior.covariance_rows": "count",
    "posterior.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass (one scenario, each phase once)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_of(name: str) -> float:
        return sum(own[s.id] for s in by_name[name])

    kkt = by_name["linalg.solve_kkt"]
    small = [s for s in kkt if s.attrs["rows"] <= SMALL_KKT_ROWS]
    large = [s for s in kkt if s.attrs["rows"] > SMALL_KKT_ROWS]
    # n^3 / 3 flops per symmetric factorization; a ridge retry factors twice.
    factor_flops = sum(s.attrs["rows"] ** 3 * (2 if s.attrs["regularized"] else 1) for s in kkt)
    factor_flops += sum(s.attrs["rows"] ** 3 for s in by_name["posterior.covariance_bound"])
    regions = by_name["local_solver.solve_local"]
    region_busy = busy("local_solver.solve_local")
    region_wall = union_length(((s.start, s.end) for s in regions), float("-inf"), float("inf"))
    return {
        "powerflow.solve_s": busy("powerflow.solve_power_flow"),
        "powerflow.newton_iterations": sum(s.attrs["newton"] for s in by_name["powerflow.solve_power_flow"]),
        "linalg.solve_linear_s": busy("linalg.solve_linear"),
        "linalg.kkt_small_s": sum(s.duration for s in small),
        "linalg.kkt_small_calls": len(small),
        "linalg.kkt_large_s": sum(s.duration for s in large),
        "linalg.kkt_large_calls": len(large),
        "linalg.kkt_max_rows": max((s.attrs["rows"] for s in kkt), default=0),
        "linalg.kkt_regularized": sum(s.attrs["regularized"] for s in kkt),
        "linalg.factor_gflop": factor_flops / 3e9,
        "grid.pf_eval_s": busy("grid.pf_eval"),
        "grid.pf_jacobian_s": busy("grid.pf_jacobian"),
        "grid.pf_jacobian_calls": len(by_name["grid.pf_jacobian"]),
        "measurements.simulate_s": busy("measurements.simulate_measurements"),
        "measurements.residual_eval_s": busy("measurements.residual_eval"),
        "measurements.residual_jacobian_s": busy("measurements.residual_jacobian"),
        "measurements.residual_calls": len(by_name["measurements.residual_eval"])
        + len(by_name["measurements.residual_jacobian"]),
        "partition.partition_s": busy("partition.partition_grid"),
        "caseio.load_s": busy("caseio.load_case"),
        "local_solver.region_busy_s": region_busy,
        "local_solver.region_calls": len(regions),
        "local_solver.inner_iterations": sum(s.attrs["inner"] for s in regions),
        "local_solver.nonconverged": sum(not s.attrs["converged"] for s in regions),
        "local_solver.region_overlap": region_busy / region_wall if region_wall > 0 else 0.0,
        "local_solver.self_s": self_of("local_solver.solve_local"),
        "coordinator.consensus_s": busy("coordinator.solve_consensus"),
        "coordinator.kkt_rows": max((s.attrs["rows"] for s in by_name["coordinator.solve_consensus"]), default=0),
        "coordinator.self_s": self_of("coordinator.solve_consensus"),
        "aladin.self_s": self_of("estimate"),
        "admm.self_s": self_of("admm"),
        "posterior.covariance_s": busy("posterior.covariance_bound"),
        "posterior.covariance_rows": max((s.attrs["rows"] for s in by_name["posterior.covariance_bound"]), default=0),
        "posterior.self_s": self_of("posterior"),
    }


PHASES = ("setup", "estimate", "admm", "central", "posterior")


def phase_accounting(spans: list[Span]) -> dict[str, dict[str, float]]:
    """How the spans under each phase account for its wall time.

    accounted is the phase's self time plus the self times of every span
    below it.  It equals the wall time when nothing below the phase ran
    concurrently, and exceeds it by the overlap of pool threads otherwise.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        root = s
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        if root.name not in PHASES:
            continue
        row = out.setdefault(root.name, {"wall": 0.0, "self": 0.0, "accounted": 0.0})
        if s is root:
            row["wall"] += s.duration
            row["self"] += own[s.id]
        row["accounted"] += own[s.id]
    return out
