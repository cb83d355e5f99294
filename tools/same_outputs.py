"""Check that two checkouts of gridest write byte-identical outputs.

    python3 tools/same_outputs.py OTHER_CHECKOUT

compares OTHER_CHECKOUT with the checkout that holds this script.  Each
checkout runs in its own Python subprocess, with its own src and perfbench
first on sys.path, and writes into a fresh directory:

- every file that `gridest estimate`, `admm`, `compare` and `posterior`
  write on ieee30/default4 at seeds 1, 2 and 7, beside each command's
  stdout, stderr, warnings and exit code;
- the same of `gridest estimate --rho 10 --seed 7`, which ends "consensus
  QP singular" after a ridge retry, `--rho 3 --seed 1`, which coordinates
  8 times, `--rho 1 --seed 2`, where a region starts an inner solve at a
  line-end voltage <= 0, and `--rho 1 --seed 1`, which ends on a stalled
  line search;
- every file that `gridest estimate`, `admm` and `posterior` write on
  six_bus/six2 and twelve_bus/twelve3 at the default seed, with the same
  records;
- the same of `gridest simulate` at seeds 1, 2 and 7, with and without
  `--partition default4`, of `gridest check --partition default4`, and of
  `gridest convert` on the bundled ieee30 tables;
- the central solve's iteration count, fit, KKT residual and a SHA-256 of
  its state, on the ieee30/default4 measurements at seeds 1, 2 and 7;
- the ALADIN and ADMM (max_outer=30) history rows, the outcome and a
  SHA-256 of the final region states, on 8 and 16 ieee30 tiles
  (perfbench/tiling.py) at seed 1, and the central record on 8 tiles;
- the same ALADIN and ADMM records on 8 tiles at seed 1 with the
  measurement set in reversed order.

It prints every output that differs or exists on one side only, and
exits 1 if there is any, 0 when every output is the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("estimate", "admm", "compare", "posterior")
SEEDS = (1, 2, 7)
#: Extra `gridest estimate` runs on ieee30/default4, as (rho, seed).
ESTIMATE_RUNS = ((10, 7), (3, 1), (1, 2), (1, 1))
#: The small bundled cases, as (case, partition), and what runs on them.
SMALL_CASES = (("six_bus", "six2"), ("twelve_bus", "twelve3"))
SMALL_COMMANDS = ("estimate", "admm", "posterior")
TILES = (8, 16)
CENTRAL_TILES = (8,)
REVERSED_TILES = (8,)
TILE_SEED = 1
TILE_MAX_OUTER = 30


def _cli(main, argv: list[str], record: Path) -> None:
    """Run gridest's CLI main on argv and write its stdout, stderr,
    warnings and exit code to record.  Each warning is written as its
    category and message only: the default display names the warning's
    source file by absolute path and line, which differ between checkouts."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    record.parent.mkdir(parents=True, exist_ok=True)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    record.write_text(f"{out.getvalue()}--- stderr\n{err.getvalue()}--- warnings\n{shown}--- exit {code}\n")


def _central(central, case, mset, record: Path) -> None:
    """Run the central solve and write its iteration count, the reprs of
    its fit and KKT residual and a SHA-256 of its state to record."""
    sol = central.solve_central(case, mset)
    record.write_text(f"iterations={sol.inner_iterations} fit={sol.fit!r} kkt_residual={sol.kkt_residual!r}\n"
                      f"x sha256 {hashlib.sha256(sol.x.tobytes()).hexdigest()}\n")


def _runs(aladin, admm, caseio, part, mset, truth, name: str) -> None:
    """Run ALADIN and ADMM (max_outer=TILE_MAX_OUTER) and write each one's
    history rows, outcome and a SHA-256 of its final region states to
    name-METHOD.txt."""
    config = aladin.RunConfig(max_outer=TILE_MAX_OUTER)
    for method, run in (("aladin", aladin.run_aladin), ("admm", admm.run_admm)):
        result = run(part, mset, config=config, truth=truth)
        digest = hashlib.sha256(b"".join(z.tobytes() for z in result.zs)).hexdigest()
        lines = [caseio.history_row(rec) for rec in result.history]
        lines += [f"converged={result.converged} note={result.note}", f"states sha256 {digest}"]
        Path(f"{name}-{method}.txt").write_text("\n".join(lines) + "\n")


def produce(checkout: Path, out: Path) -> None:
    """Write every compared output of checkout into out."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from gridest import admm, aladin, caseio, central, cli, measurements, partition, powerflow
    import tiling

    # Relative --out paths keep the directory out of the recorded stdout.
    os.chdir(out)
    case = caseio.builtin_case("ieee30")
    part = partition.partition_grid(case, caseio.builtin_partition_spec("default4")[1])
    truth = powerflow.solve_power_flow(case).state
    for seed in SEEDS:
        for command in COMMANDS:
            name = f"{command}-seed{seed}"
            _cli(cli.main, [command, "--seed", str(seed), "--out", name], Path(name, "stdout.txt"))
        for flags in ([], ["--partition", "default4"]):
            name = "-".join(["simulate", *flags[1:], f"seed{seed}"])
            _cli(cli.main, ["simulate", "--seed", str(seed), "--out", name, *flags], Path(name, "stdout.txt"))
        mset = measurements.simulate_measurements(
            case, truth, rng=seed, measured_lines=partition.internal_line_keys(part)
        )
        _central(central, case, mset, Path(f"central-seed{seed}.txt"))
    for rho, seed in ESTIMATE_RUNS:
        name = f"estimate-rho{rho}-seed{seed}"
        _cli(cli.main, ["estimate", "--rho", str(rho), "--seed", str(seed), "--out", name], Path(name, "stdout.txt"))
    for case_name, partition_name in SMALL_CASES:
        for command in SMALL_COMMANDS:
            name = f"{command}-{case_name}"
            _cli(cli.main, [command, "--case", case_name, "--partition", partition_name, "--out", name],
                 Path(name, "stdout.txt"))
    _cli(cli.main, ["check", "--partition", "default4"], Path("check.txt"))
    tables = checkout / "src" / "gridest" / "data" / "ieee30_tables.txt"
    _cli(cli.main, ["convert", str(tables), "convert-ieee30.yaml"], Path("convert.txt"))
    for n_tiles in TILES:
        case = tiling.tiled_case(n_tiles)
        part = partition.partition_grid(case, tiling.tile_assignment(case))
        truth = powerflow.solve_power_flow(case).state
        mset = measurements.simulate_measurements(
            case, truth, rng=TILE_SEED, measured_lines=partition.internal_line_keys(part)
        )
        _runs(aladin, admm, caseio, part, mset, truth, f"tiles{n_tiles}")
        if n_tiles in REVERSED_TILES:
            reversed_set = measurements.MeasurementSet(
                mset.node_ids[::-1], mset.node_values[::-1], mset.node_weights[::-1],
                mset.line_ends[::-1], mset.line_values[::-1], mset.line_weights[::-1],
            )
            _runs(aladin, admm, caseio, part, reversed_set, truth, f"tiles{n_tiles}-reversed")
        if n_tiles in CENTRAL_TILES:
            _central(central, case, mset, Path(f"tiles{n_tiles}-central.txt"))


def compare_dirs(a: Path, b: Path) -> tuple[int, list[str]]:
    """(number of files compared, one line per file that differs or that
    only one of the directory trees a and b holds)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            diffs.append(f"only in {a}: {rel}")
        elif rel not in files_a:
            diffs.append(f"only in {b}: {rel}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            diffs.append(f"differs: {rel}")
    return len(files_a | files_b), diffs


def main(argv: list[str]) -> int:
    if argv[:1] == ["--produce"] and len(argv) == 3:
        produce(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    checkouts = [Path(argv[0]).resolve(), ROOT]
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for k, checkout in enumerate(checkouts):
            out = Path(tmp, str(k))
            out.mkdir()
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--produce", str(checkout), str(out)],
                           check=True)
            outs.append(out)
        n_files, diffs = compare_dirs(*outs)
    for line in diffs:
        print(line)
    print(f"{checkouts[0]} vs {checkouts[1]}: {len(diffs)} of {n_files} outputs differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
