"""Benchmark of the gridest estimation pipeline.

    python3 perfbench/run.py --workload paper30 --seed 1 --seconds 30 --trace 0

A single-process, closed-loop harness: one caller runs one scenario pass
after another, each pass waiting for the previous one.  A pass builds one
scenario from the public API (the setup phase) and then runs the phases of
its workload through their public entry points with the library default
configurations.  The workload seed fixes a list of measurement seeds; the
run goes through that list in rounds, always at least one, and starts
another round only while it still fits in --seconds.  Every timing is the
median over the run's passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
the program's layer functions (layers.TARGETS) and prints the per-layer
metrics instead.  Each run also writes a result file with provenance, every
pass and, when traced, every span under perfbench/out/.  A traced run finds
the untraced result file of the same workload and seed there, if one
exists, and reports the tracing overhead against it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  attempted counts solver calls and checks,
failed those that raised, did not converge or did not hold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    tiles: int  # 0: ieee30 with the bundled default4 partition
    n_seeds: int
    phases: tuple[str, ...]
    # Runs of a phase within one pass (default 1); the pass keeps their median.
    repeats: dict[str, int] = field(default_factory=dict)


# Why each workload exists is recorded beside it in BENCHMARK.json.  On
# paper30 ADMM takes 95 % of a pass, so the other phases repeat to give
# their medians enough samples.
WORKLOADS = {
    "paper30": Workload(0, 4, ("estimate", "admm", "central", "posterior"),
                        {"setup": 10, "estimate": 10, "central": 10, "posterior": 10}),
    "tiled480": Workload(16, 3, ("estimate", "posterior"), {"setup": 2}),
    "central240": Workload(8, 6, ("estimate", "central"), {"setup": 2}),
}

# Printed with --trace 0, in this order, with these units.
END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "pipeline_s": "s",
    "estimate_iterations": "count",
    "comm_floats": "count",
    "peak_rss_mb": "MB",
}
# Phase results that not every workload has, printed with --trace 1 beside
# the layer metrics; 0 where the workload does not run the phase.
PHASE_METRICS = {
    "admm_s": "s",
    "central_s": "s",
    "posterior_s": "s",
    "admm_iterations": "count",
    "central_gap": "max-abs",
    "state_error": "max-abs",
}


def import_program():
    """Import gridest from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import gridest

    if Path(gridest.__file__).resolve().parent != SRC / "gridest":
        raise ImportError(f"gridest imported from {gridest.__file__}, not from {SRC}")


def measurement_seeds(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)


@dataclass
class Scenario:
    case: object
    part: object
    truth: object
    mset: object


def build_scenario(workload: Workload, mseed: int, ledger: Ledger) -> Scenario:
    """The setup phase: case or tiling, partition, power flow, measurements."""
    from gridest import caseio, measurements, partition, powerflow

    import tiling

    if workload.tiles:
        case = tiling.tiled_case(workload.tiles)
        assignment = tiling.tile_assignment(case)
    else:
        case = caseio.builtin_case("ieee30")
        _, assignment = caseio.builtin_partition_spec("default4")
    part = partition.partition_grid(case, assignment)
    if workload.tiles:
        try:
            tiling.check_tiling(case, part, workload.tiles)
            ledger.check(True, "tiling")
        except ValueError as exc:
            ledger.fail(f"tiling: {exc}")
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=mseed, measured_lines=partition.internal_line_keys(part)
    )
    return Scenario(case, part, truth, mset)


class Pass:
    """One scenario and each phase of the workload, timed.

    Only the first run of a repeated phase belongs to the pass in a trace;
    the spans of later runs carry no scenario.  The first pass of a run
    runs ALADIN at least twice, so every run checks that a repeat gives the
    same history CSV rows.
    """

    def __init__(self, workload: Workload, index: int, mseed: int, ledger: Ledger, recorder=None):
        self.workload = workload
        self.index = index
        self.mseed = mseed
        self.ledger = ledger
        self.recorder = recorder
        self.metrics: dict[str, float] = {}
        self.history: list[str] = []

    def timed(self, phase: str, fn, *args, runs: int | None = None, **kwargs) -> list:
        """Run fn `runs` times (default: the workload's repeats) in one phase."""
        runs = runs or self.workload.repeats.get(phase, 1)
        results, times = [], []
        for i in range(runs):
            rec = self.recorder
            if rec is not None:
                rec.scenario = self.index if i == 0 else None
            with rec.phase(phase) if rec is not None else nullcontext():
                t0 = time.perf_counter()
                results.append(fn(*args, **kwargs))
                times.append(time.perf_counter() - t0)
        if self.recorder is not None:
            self.recorder.scenario = self.index
        self.metrics[f"{phase}_s"] = statistics.median(times)
        return results

    def run(self) -> bool:
        """Run every phase; False when one raised (the rest are skipped)."""
        from gridest import admm, aladin, caseio, central, partition, posterior
        import numpy as np

        w, ledger, tag = self.workload, self.ledger, f"seed {self.mseed}"
        phase = "setup"
        try:
            sc = self.timed("setup", build_scenario, w, self.mseed, ledger)[0]
            ledger.check(True, "setup")
            phase = "estimate"
            runs = w.repeats.get("estimate", 1)
            ests = self.timed("estimate", aladin.run_aladin, sc.part, sc.mset, truth=sc.truth,
                              runs=max(2, runs) if self.index == 0 else runs)
            est = ests[0]
            ledger.check(est.converged, f"{tag}: ALADIN did not converge: {est.note}")
            self.history = [caseio.history_row(r) for r in est.history]
            for again in ests[1:]:
                ledger.check([caseio.history_row(r) for r in again.history] == self.history,
                             f"{tag}: repeated ALADIN run changed the history CSV rows")
            formula = aladin.comm_counts(sc.part)
            up = sum(r.upload_floats for r in est.history)
            down = sum(r.download_floats for r in est.history)
            ledger.check(
                up == est.iterations * formula.upload_total
                and down == (est.iterations - 1) * formula.download_total,
                f"{tag}: measured floats {up}/{down} differ from the formula",
            )
            x_est = partition.restrict_state(sc.part, est.zs)
            state_error = float(np.abs(x_est - sc.truth).max())
            ledger.check(np.isfinite(state_error), f"{tag}: state_error is not finite")
            self.metrics.update(
                estimate_iterations=est.iterations, comm_floats=up + down, state_error=state_error
            )
            if "admm" in w.phases:
                phase = "admm"
                res = self.timed("admm", admm.run_admm, sc.part, sc.mset, truth=sc.truth)[0]
                ledger.check(res.converged, f"{tag}: ADMM did not converge: {res.note}")
                self.metrics["admm_iterations"] = res.iterations
            if "central" in w.phases:
                phase = "central"
                ref = self.timed("central", central.solve_central, sc.case, sc.mset)[0]
                ledger.check(True, "central")
                gap = float(np.abs(x_est - ref.x).max())
                ledger.check(np.isfinite(gap), f"{tag}: central_gap is not finite")
                self.metrics.update(central_gap=gap, central_iterations=ref.inner_iterations)
            if "posterior" in w.phases:
                phase = "posterior"
                rep = self.timed("posterior", posterior.analyze, sc.part, sc.mset, est.zs)[0]
                cov = rep.covariance
                ledger.check(
                    bool(np.all(np.isfinite(cov))) and np.array_equal(cov, cov.T),
                    f"{tag}: posterior covariance is not finite and symmetric",
                )
        except Exception:  # a failed phase is a failed operation; the run goes on
            ledger.fail(f"{tag}: {phase} raised\n{traceback.format_exc()}")
            return False
        self.metrics["pipeline_s"] = sum(
            self.metrics[f"{p}_s"] for p in ("setup", *w.phases) if p != "admm"
        )
        return True


def warm_up() -> None:
    """Load every lazily imported module and the bundled case once, untimed."""
    Pass(Workload(0, 1, ("estimate", "central", "posterior")), 1, 0, Ledger()).run()


def provenance(workload: str, seed: int, seeds: list[int], seconds: int, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "measurement_seeds": seeds,
        "seconds": seconds,
        "trace": trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median(passes: list[Pass], name: str) -> float:
    values = [p.metrics[name] for p in passes if name in p.metrics]
    return float(statistics.median(values)) if values else 0.0


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import layers
    from spans import Recorder

    workload = WORKLOADS[workload_name]
    seeds = measurement_seeds(seed, workload.n_seeds)
    ledger = Ledger()
    warm_up()
    before = layers.snapshot()
    recorder = None
    if trace:
        recorder = Recorder()
        layers.install(recorder)
    passes: list[Pass] = []
    histories: dict[int, list[str]] = {}
    try:
        deadline = time.perf_counter() + seconds
        while True:
            t_round = time.perf_counter()
            for mseed in seeds:
                p = Pass(workload, len(passes), mseed, ledger, recorder)
                ok = p.run()
                passes.append(p)
                if ok and mseed in histories:
                    ledger.check(p.history == histories[mseed],
                                 f"seed {mseed}: rerun changed the history CSV rows")
                elif ok:
                    histories[mseed] = p.history
            now = time.perf_counter()
            if now + (now - t_round) > deadline:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
    ledger.check(layers.snapshot() == before, "wrapped attributes were not restored")
    good = [p for p in passes if p.history]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "provenance": provenance(workload_name, seed, seeds, seconds, int(trace)),
        "passes": [{"seed": p.mseed, **p.metrics} for p in passes],
        "failures": ledger.failures,
    }
    if not trace:
        values = {name: median(good, name) for name in END_TO_END if name != "peak_rss_mb"}
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    else:
        spans = [s for s in recorder.spans if s.scenario is not None]
        by_pass: dict[int, list] = {}
        for s in spans:
            by_pass.setdefault(s.scenario, []).append(s)
        layer_rows = [layers.layer_metrics(by_pass.get(i, [])) for i in range(len(passes)) if passes[i].history]
        values = {name: float(statistics.median(row[name] for row in layer_rows)) if layer_rows else 0.0
                  for name in layers.UNITS}
        values.update({name: median(good, name) for name in PHASE_METRICS})
        units = {**layers.UNITS, **PHASE_METRICS}
        result["layers_per_pass"] = layer_rows
        result["accounting"] = [layers.phase_accounting(by_pass.get(i, [])) for i in range(len(passes))]
        result["overhead"] = tracing_overhead(workload_name, seed, good)
        result["spans"] = [s.as_row() for s in recorder.spans]
    result["summary"] = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else None,
                           "unit": units[name]} for name in units},
    }
    return result


def tracing_overhead(workload: str, seed: int, traced: list[Pass]) -> dict:
    """Traced minus untraced phase medians, from this seed's untraced result file."""
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        return {"note": f"no untraced result at {path.name}; run --trace 0 first"}
    untraced = json.loads(path.read_text())["passes"]
    out = {}
    for name in ("setup_s", "estimate_s", "admm_s", "central_s", "posterior_s"):
        base = [p[name] for p in untraced if name in p]
        mine = [p.metrics[name] for p in traced if name in p.metrics]
        if base and mine:
            b, m = statistics.median(base), statistics.median(mine)
            out[name] = {"untraced": b, "traced": m, "overhead_s": m - b}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result))
    summary = result["summary"]
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"passes={len(result['passes'])} wrote {out_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
