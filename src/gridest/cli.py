"""Command line entry points.

Subcommands cover the whole workflow: simulate measurements, run the
distributed estimator or the ADMM baseline, compare the two, report
posterior deviations, self-check a case, and convert published bus/branch
tables into the native case format.  Exit codes: 0 success, 1 solver
non-convergence or failed checks, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, admm, aladin, caseio, central, measurements, partition, posterior, powerflow
from .errors import Diverged, GridestError
from .grid import PowerFlowModel
from .measurements import RegionResidual

DEFAULT_CASE = "ieee30"
DEFAULT_PARTITION = "default4"
DEFAULT_SEED = 7


def _resolve_case(spec: str):
    return caseio.load_case(spec) if Path(spec).exists() else caseio.builtin_case(spec)


def _resolve_partition(case, spec: str) -> partition.Partition:
    load = caseio.load_partition_spec if Path(spec).exists() else caseio.builtin_partition_spec
    _, assignment = load(spec)
    return partition.partition_grid(case, assignment)


def _meta(args, method: str) -> dict:
    """Reproducibility header written into every output file; the config
    hash covers the method and every scenario and solver flag."""
    flags = vars(args)
    config = {"method": method, "case": args.case, "partition": args.partition, "seed": args.seed}
    config.update((key, flags[key]) for key in ("rho", "eps", "max_iter") if key in flags)
    return {"tool": f"gridest {__version__}", "seed": args.seed, "config_hash": caseio.config_hash(config)}


def _prepare(args):
    """Shared setup: run config (checked first, so bad flags cost no work),
    partition, simulated truth and measurements."""
    config = aladin.RunConfig(rho=args.rho, eps=args.eps, max_outer=args.max_iter)
    case = _resolve_case(args.case)
    part = _resolve_partition(case, args.partition)
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=args.seed,
        measured_lines=partition.internal_line_keys(part),
    )
    return config, part, truth, mset


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    case = _resolve_case(args.case)
    truth = powerflow.solve_power_flow(case).state
    lines = None
    if args.partition is not None:
        lines = partition.internal_line_keys(_resolve_partition(case, args.partition))
    mset = measurements.simulate_measurements(case, truth, rng=args.seed, measured_lines=lines)
    path = _out_dir(args) / "measurements.yaml"
    caseio.save_measurements(mset, path, meta=_meta(args, "simulate"))
    print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    """`estimate` (method aladin) and `admm`: history CSV and summary YAML."""
    method = args.method
    config, part, truth, mset = _prepare(args)
    run = aladin.run_aladin if method == "aladin" else admm.run_admm
    result = run(part, mset, config=config, truth=truth)
    meta = _meta(args, method)
    out = _out_dir(args)
    caseio.write_history_csv(out / f"{method}_history.csv", result.history, meta=meta)
    summary = dict(meta)
    summary.update(
        converged=result.converged,
        iterations=result.iterations,
        final_violation=float(result.final_violation),
    )
    if method == "aladin":
        summary.update(
            upload_floats=sum(r.upload_floats for r in result.history),
            download_floats=sum(r.download_floats for r in result.history),
            upload_floats_per_iteration_formula=result.formula.upload_total,
        )
    summary["note"] = result.note
    caseio.write_summary(out / f"{method}_summary.yaml", summary)
    print(f"wrote {out / f'{method}_history.csv'}")
    print(f"converged={result.converged} iterations={result.iterations} "
          f"violation={result.final_violation:.3e}")
    if not result.converged:
        what = "estimator" if method == "aladin" else "baseline"
        print(f"{what} did not converge: {result.note}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args) -> int:
    config, part, truth, mset = _prepare(args)
    a_res = aladin.run_aladin(part, mset, config=config, truth=truth)
    b_res = admm.run_admm(part, mset, config=config, truth=truth)
    meta = _meta(args, "compare")
    out = _out_dir(args)
    path = out / "compare.csv"
    rows = caseio.meta_lines(meta)
    rows.append("method," + ",".join(caseio.HISTORY_COLUMNS))
    for method, history in (("aladin", a_res.history), ("admm", b_res.history)):
        for rec in history:
            rows.append(method + "," + caseio.history_row(rec))
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    print(f"aladin: converged={a_res.converged} iterations={a_res.iterations}")
    print(f"admm:   converged={b_res.converged} iterations={b_res.iterations}")
    return 0 if (a_res.converged and b_res.converged) else 1


def cmd_posterior(args) -> int:
    config, part, truth, mset = _prepare(args)
    result = aladin.run_aladin(part, mset, config=config, truth=truth)
    if not result.converged:
        print(f"estimator did not converge: {result.note}", file=sys.stderr)
        return 1
    report = posterior.analyze(part, mset, result.zs)
    meta = _meta(args, "posterior")
    out = _out_dir(args)
    table = posterior.render_table(report)
    header = caseio.meta_lines(meta)
    (out / "posterior.txt").write_text("\n".join(header + [table]) + "\n")
    rows = header + ["bus,theta_abs,v_abs,p_abs,q_abs,theta_rel,v_rel,p_rel,q_rel"]
    for i, bus_id in enumerate(report.node_ids):
        cells = [str(bus_id)]
        cells += [repr(float(v)) for v in report.abs_std[i]]
        cells += ["" if report.excluded[i, c] else repr(float(report.rel_std[i, c]))
                  for c in range(4)]
        rows.append(",".join(cells))
    avg = ["AVG", "", "", "", ""] + [repr(float(v)) for v in report.averages]
    rows.append(",".join(avg))
    (out / "posterior.csv").write_text("\n".join(rows) + "\n")
    print(table)
    print(f"wrote {out / 'posterior.txt'} and {out / 'posterior.csv'}")
    return 0


def _fd_jacobian(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.column_stack(cols)


def cmd_check(args) -> int:
    case = _resolve_case(args.case)
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1

    model = PowerFlowModel(case)
    rowsum = np.abs(model.admittance.sum(axis=1)).max()
    report("admittance row sums", rowsum <= 1e-12, f"max |row sum| = {rowsum:.2e}")

    pf = powerflow.solve_power_flow(case)
    report("power flow", pf.mismatch <= powerflow.TOL,
           f"{pf.iterations} iterations, mismatch {pf.mismatch:.2e}")

    mset = measurements.simulate_measurements(case, pf.state, rng=args.seed)
    residual = RegionResidual(case, mset)
    worst = 0.0
    for _ in range(5):
        x = np.array(pf.state)
        x[0::4] = rng.uniform(-0.3, 0.3, case.n_bus)
        x[1::4] = rng.uniform(0.9, 1.1, case.n_bus)
        for fun, jac in ((model.eval, model.jacobian), (residual.eval, residual.jacobian)):
            an = jac(x).toarray()
            fd = _fd_jacobian(fun, x)
            worst = max(worst, np.abs(an - fd).max() / (1.0 + np.abs(an).max()))
    report("analytic jacobians vs finite differences", worst <= 1e-6,
           f"max relative deviation {worst:.2e}")

    if args.partition is not None:
        part = _resolve_partition(case, args.partition)
        dev = partition.merge_check(part)
        report("partition merge round trip", dev <= 1e-12, f"max deviation = {dev:.2e}")
        frags = partition.extend_state(part, pf.state)
        viol = np.abs(partition.consensus_gap(part, frags)).max(initial=0.0)
        report("consensus at the extended power flow state", viol <= 1e-10,
               f"|sum A_i x_i| = {viol:.2e}")

    return 1 if failures else 0


def cmd_convert(args) -> int:
    text = caseio.read_text(args.tables)
    case = caseio.convert_tables(text, name=Path(args.output).stem)
    caseio.dump_case(case, args.output)
    print(f"wrote {args.output} ({case.n_bus} buses, {len(case.lines)} lines)")
    return 0


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as numpy requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _add_run_flags(p: argparse.ArgumentParser, defaults: aladin.RunConfig) -> None:
    """Scenario and solver flags; --rho, --eps and --max-iter default to defaults' values."""
    p.add_argument("--case", default=DEFAULT_CASE,
                   help="case file path or builtin name (default: %(default)s)")
    p.add_argument("--partition", default=DEFAULT_PARTITION,
                   help="partition file path or builtin name (default: %(default)s)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--rho", type=float, default=defaults.rho)
    p.add_argument("--eps", type=float, default=defaults.eps)
    p.add_argument("--max-iter", type=int, default=defaults.max_outer, dest="max_iter")
    p.add_argument("--out", default=".", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridest",
                                     description="distributed grid state estimation toolkit")
    parser.add_argument("--version", action="version", version=f"gridest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one measurement realization")
    p.add_argument("--case", default=DEFAULT_CASE)
    p.add_argument("--partition", default=None,
                   help="restrict line sensors to intra-region lines")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="distributed estimation run")
    _add_run_flags(p, aladin.RunConfig())
    p.set_defaults(fn=cmd_run, method="aladin")

    p = sub.add_parser("admm", help="ADMM baseline run")
    _add_run_flags(p, admm.DEFAULT_CONFIG)
    p.set_defaults(fn=cmd_run, method="admm")

    p = sub.add_parser("compare", help="run both methods on identical measurements")
    _add_run_flags(p, admm.DEFAULT_CONFIG)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("posterior", help="a-posteriori deviation report")
    _add_run_flags(p, aladin.RunConfig())
    p.set_defaults(fn=cmd_posterior)

    p = sub.add_parser("check", help="jacobian and invariant self-checks")
    p.add_argument("--case", default=DEFAULT_CASE)
    p.add_argument("--partition", default=None,
                   help="also check this partition's merge and consensus invariants")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("convert", help="bus/branch tables to native case file")
    p.add_argument("tables", help="input tables file")
    p.add_argument("output", help="output case file")
    p.set_defaults(fn=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Diverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GridestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
