from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridest
from gridest import caseio, cli


def _run(*argv):
    return cli.main([str(a) for a in argv])


def test_simulate_writes_measurements_with_meta(tmp_path):
    assert _run("simulate", "--case", "ieee30", "--partition", "default4",
                "--seed", 7, "--out", tmp_path) == 0
    mset, meta = caseio.load_measurements(tmp_path / "measurements.yaml")
    assert meta["seed"] == 7
    assert meta["tool"].startswith("gridest ")
    assert "config_hash" in meta
    assert len(mset.node_ids) == 30
    assert len(mset.line_ends) == 33


def test_simulate_without_partition_measures_every_line(tmp_path):
    assert _run("simulate", "--case", "ieee30", "--seed", 3, "--out", tmp_path) == 0
    mset, _ = caseio.load_measurements(tmp_path / "measurements.yaml")
    assert len(mset.line_ends) == 41


def test_estimate_end_to_end(tmp_path, capsys):
    assert _run("estimate", "--case", "ieee30", "--partition", "default4",
                "--seed", 7, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    history = (tmp_path / "aladin_history.csv").read_text().splitlines()
    assert history[0].startswith("# config_hash:")
    assert history[3] == ",".join(caseio.HISTORY_COLUMNS)
    summary = yaml.safe_load((tmp_path / "aladin_summary.yaml").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] <= 50
    assert summary["final_violation"] <= 1e-4
    assert summary["upload_floats"] == summary["iterations"] * summary["upload_floats_per_iteration_formula"]


def test_estimate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("estimate", "--seed", 7, "--out", a) == 0
    assert _run("estimate", "--seed", 7, "--out", b) == 0
    assert (a / "aladin_history.csv").read_bytes() == (b / "aladin_history.csv").read_bytes()


def test_estimate_reports_nonconvergence_with_exit_one(tmp_path, capsys):
    assert _run("estimate", "--max-iter", 1, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "did not converge" in err
    # The partial history is still written for diagnosis.
    assert (tmp_path / "aladin_history.csv").exists()


@pytest.mark.filterwarnings("ignore:KKT factorization failed")
def test_a_singular_kkt_system_exits_one_with_the_partial_history(tmp_path, capsys):
    assert _run("estimate", "--rho", 1e8, "--out", tmp_path) == 1
    assert "singular" in capsys.readouterr().err
    history = (tmp_path / "aladin_history.csv").read_text().splitlines()
    assert history[3] == ",".join(caseio.HISTORY_COLUMNS)
    summary = yaml.safe_load((tmp_path / "aladin_summary.yaml").read_text())
    assert summary["converged"] is False


def test_a_consensus_step_to_a_zero_voltage_exits_one_with_the_partial_history(tmp_path, capsys):
    assert _run("estimate", "--rho", 1, "--out", tmp_path) == 1
    assert "v_k > 0" in capsys.readouterr().err
    history = (tmp_path / "aladin_history.csv").read_text().splitlines()
    assert history[3] == ",".join(caseio.HISTORY_COLUMNS)
    assert len(history) == 8


def test_the_package_runs_as_a_module(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "gridest", "--version"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"gridest {gridest.__version__}"


def test_admm_end_to_end(tmp_path):
    assert _run("admm", "--seed", 7, "--out", tmp_path) == 0
    summary = yaml.safe_load((tmp_path / "admm_summary.yaml").read_text())
    assert summary["converged"] is True
    rows = (tmp_path / "admm_history.csv").read_text().splitlines()
    assert len(rows) == 3 + 1 + summary["iterations"]


def test_compare_interleaves_both_methods(tmp_path):
    assert _run("compare", "--seed", 7, "--out", tmp_path) == 0
    rows = (tmp_path / "compare.csv").read_text().splitlines()
    header = rows[3].split(",")
    assert header[0] == "method"
    methods = {row.split(",")[0] for row in rows[4:]}
    assert methods == {"aladin", "admm"}


def test_posterior_writes_table_and_csv(tmp_path, capsys):
    assert _run("posterior", "--seed", 7, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "AVG" in out
    text = (tmp_path / "posterior.txt").read_text()
    assert text.count("\n") >= 32
    rows = (tmp_path / "posterior.csv").read_text().splitlines()
    assert rows[3].split(",")[0] == "bus"
    assert rows[-1].startswith("AVG")
    assert len(rows) == 3 + 1 + 30 + 1
    # Criterion 10 for the posterior: a rerun writes the same bytes.
    again = tmp_path / "again"
    assert _run("posterior", "--seed", 7, "--out", again) == 0
    assert (again / "posterior.csv").read_bytes() == (tmp_path / "posterior.csv").read_bytes()


def test_posterior_honours_the_iteration_budget(tmp_path, capsys):
    assert _run("posterior", "--max-iter", 1, "--out", tmp_path) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "posterior.csv").exists()


def test_check_passes_on_builtin_data(capsys):
    assert _run("check", "--case", "ieee30", "--partition", "default4") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_check_runs_partition_checks_only_when_a_partition_is_given(capsys):
    assert _run("check", "--case", "six_bus") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 3
    assert _run("check", "--case", "six_bus", "--partition", "six2") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_convert_produces_a_loadable_case(tmp_path, capsys):
    from importlib import resources

    src = resources.files("gridest") / "data" / "ieee30_tables.txt"
    dst = tmp_path / "out.yaml"
    assert _run("convert", str(src), dst) == 0
    case = caseio.load_case(dst)
    assert case.n_bus == 30


def test_unknown_case_exits_two(tmp_path, capsys):
    assert _run("estimate", "--case", "missing.yaml", "--out", tmp_path) == 2
    assert "unknown builtin case" in capsys.readouterr().err


def test_case_and_partition_paths_are_accepted(tmp_path):
    case_path = tmp_path / "c.yaml"
    caseio.dump_case(caseio.builtin_case("six_bus"), case_path)
    part_path = tmp_path / "p.yaml"
    _, assignment = caseio.builtin_partition_spec("six2")
    caseio.dump_partition_spec("mine", assignment, part_path)
    out = tmp_path / "run"
    assert _run("estimate", "--case", case_path, "--partition", part_path,
                "--seed", 1, "--out", out) == 0
    assert (out / "aladin_history.csv").exists()


def test_partition_labels_that_read_alike_exit_two(tmp_path, capsys):
    path = tmp_path / "clash.yaml"
    path.write_text("name: clash\nregions:\n  1: [1, 2, 3, 4, 5, 6]\n  '1': [7, 8, 9, 10, 11, 12]\n")
    assert _run("estimate", "--case", "twelve_bus", "--partition", path, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "name the same region" in err
    assert "Traceback" not in err
    assert not (tmp_path / "aladin_history.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "admm", "compare", "posterior", "check"])
def test_negative_seed_exits_two(tmp_path, capsys, command):
    argv = [command, "--seed", -1] + ([] if command == "check" else ["--out", tmp_path])
    with pytest.raises(SystemExit) as exc:
        _run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: seed must be an integer >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--rho", "nan"), ("--rho", 0), ("--eps", 0), ("--max-iter", 0)])
@pytest.mark.parametrize("command", ["estimate", "admm", "compare", "posterior"])
def test_out_of_range_run_flags_exit_two_before_any_work(tmp_path, capsys, monkeypatch, command, flag, value):
    def no_power_flow(case):
        raise AssertionError("power flow ran before the flags were checked")

    monkeypatch.setattr(cli.powerflow, "solve_power_flow", no_power_flow)
    assert _run(command, flag, value, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("base_mva", ["abc", "0"])
def test_convert_rejects_a_bad_base_mva_with_exit_two(tmp_path, capsys, base_mva):
    tables = tmp_path / "t.txt"
    tables.write_text(f"base_mva {base_mva}\n[bus]\n1 3 0 0 0 0 1 1.06 0 132 1 1.06 0.94\n")
    assert _run("convert", tables, tmp_path / "out.yaml") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: base_mva must be a finite number > 0")
    assert "(line 1)" in err


def test_check_rejects_a_non_finite_case_value_with_exit_two(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    caseio.dump_case(caseio.builtin_case("six_bus"), path)
    path.write_text(path.read_text().replace("p_load: 0.25", "p_load: .nan", 1))
    assert _run("check", "--case", path) == 2
    assert "p_load must be finite" in capsys.readouterr().err
