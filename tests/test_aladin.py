from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import admm, aladin, central, coordinator, local_solver, measurements, partition
from gridest.errors import DimensionMismatch, InnerDiverged, SingularKkt, ValidationError

from conftest import DEFAULT_SEED, random_connected_assignment


def _zero_noise_set(case, part, truth):
    return measurements.simulate_measurements(
        case, truth, noise=None, rng=0,
        measured_lines=partition.internal_line_keys(part),
    )


def test_default_scenario_converges(aladin30, part30):
    assert aladin30.converged
    assert aladin30.iterations <= 50
    assert aladin30.final_violation <= 1e-4
    assert len(aladin30.history) == aladin30.iterations
    assert len(aladin30.zs) == part30.n_regions


def test_violations_contract_generously(aladin30):
    violations = [r.consensus_violation for r in aladin30.history]
    for earlier, later in zip(violations, violations[1:]):
        assert later < 0.5 * earlier


def test_communication_formula_matches_measured_counts(aladin30):
    formula = aladin30.formula
    for record in aladin30.history[:-1]:
        assert record.upload_floats == formula.upload_total
        assert record.download_floats == formula.download_total
    # The terminal iteration only uploads: the check passes before the QP.
    last = aladin30.history[-1]
    assert last.upload_floats == formula.upload_total
    assert last.download_floats == 0


def test_communication_formula_terms(part30):
    formula = aladin.comm_counts(part30)
    n_pairs = part30.n_pairs
    upload = sum(
        16 * r.case.n_bus**2 + 6 * r.case.n_bus + 4 * n_pairs
        for r in part30.regions
    )
    download = sum(4 * n_pairs + 4 * r.case.n_bus for r in part30.regions)
    assert formula.upload_total == upload
    assert formula.download_total == download


def test_zero_noise_recovery_from_flat(case30, part30, truth30):
    mset = _zero_noise_set(case30, part30, truth30)
    result = aladin.run_aladin(part30, mset, truth=truth30)
    assert result.converged
    estimate = partition.restrict_state(part30, result.zs)
    assert np.abs(estimate - truth30).max() <= 1e-6


def test_consensus_feasible_start_terminates_immediately(case30, part30, truth30):
    """From the extended truth with exact measurements the first termination
    check already holds: one iteration, violation exactly zero."""
    mset = _zero_noise_set(case30, part30, truth30)
    z0 = partition.extend_state(part30, truth30)
    result = aladin.run_aladin(part30, mset, z0=z0)
    assert result.converged
    assert result.iterations == 1
    assert result.history[0].consensus_violation == 0.0
    assert result.history[0].download_floats == 0


def test_single_region_run_equals_the_central_solve(case30, mset30, central30):
    part = partition.partition_grid(case30, {b: 0 for b in case30.bus_ids})
    config = aladin.RunConfig(eps=1e-8)
    result = aladin.run_aladin(part, mset30, config=config)
    assert result.converged
    assert np.abs(result.zs[0] - central30.x).max() <= 1e-8


def test_same_seed_reruns_are_bitwise_identical(part30, mset30, truth30):
    a = aladin.run_aladin(part30, mset30, truth=truth30)
    b = aladin.run_aladin(part30, mset30, truth=truth30)
    assert a.iterations == b.iterations
    for ra, rb in zip(a.history, b.history):
        assert ra.consensus_violation == rb.consensus_violation
        assert ra.step_norm == rb.step_norm
        assert ra.objective == rb.objective
        assert ra.state_error == rb.state_error
    for za, zb in zip(a.zs, b.zs):
        assert np.array_equal(za, zb)


def test_iteration_budget_is_respected(part30, mset30):
    result = aladin.run_aladin(part30, mset30, config=aladin.RunConfig(max_outer=1))
    assert not result.converged
    assert result.iterations == 1
    assert result.note != ""


def test_state_error_is_logged_only_with_truth(part30, mset30, truth30):
    with_truth = aladin.run_aladin(part30, mset30, truth=truth30)
    without = aladin.run_aladin(part30, mset30)
    assert all(np.isfinite(r.state_error) for r in with_truth.history)
    assert all(np.isnan(r.state_error) for r in without.history)
    # The logging hook never feeds back into the iterates.
    for za, zb in zip(with_truth.zs, without.zs):
        assert np.array_equal(za, zb)


def test_multiplier_vector_has_coupling_size(aladin30, part30):
    assert aladin30.lam.shape == (part30.n_coupling_rows,)


def test_inner_tolerance_follows_the_consensus_violation(aladin30):
    history = aladin30.history
    assert history[0].inner_tol == aladin.INNER_TOL_START
    for previous, record in zip(history, history[1:]):
        expected = min(aladin.INNER_TOL_START,
                       max(aladin.INNER_TOL, aladin.INNER_FORCING * previous.consensus_violation))
        assert record.inner_tol == expected
    assert all(record.inner_tol >= aladin.INNER_TOL for record in history)


def test_inexact_solves_save_inner_iterations_without_an_outer_one(monkeypatch, aladin30, part30, mset30, truth30):
    monkeypatch.setattr(aladin, "INNER_TOL_START", aladin.INNER_TOL)
    exact = aladin.run_aladin(part30, mset30, truth=truth30)
    assert all(record.inner_tol == aladin.INNER_TOL for record in exact.history)
    assert exact.iterations == aladin30.iterations

    def total(result):
        return sum(sum(record.inner_iterations) for record in result.history)

    assert total(aladin30) < total(exact)


def test_two_tile_estimate_matches_the_central_solve(two_tile30):
    part, mset = two_tile30
    result = aladin.run_aladin(part, mset)
    assert result.converged, result.note
    for record in result.history:
        assert record.note == ""
        assert not record.regularized
    estimate = partition.restrict_state(part, result.zs)
    assert np.abs(estimate - central.solve_central(part.case, mset).x).max() <= 1e-5


# The outer loop is shared; these tests run it through both estimators.
METHODS = [
    pytest.param(aladin.run_aladin, id="aladin"),
    pytest.param(admm.run_admm, id="admm"),
]


@pytest.mark.parametrize("run", METHODS)
@pytest.mark.parametrize("bad", ["z0-one-state-short", "z0-entries-short", "truth-short"])
def test_states_that_do_not_fit_the_partition_fail_before_any_solve(monkeypatch, part30, mset30, truth30, run, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("a region solve ran before the inputs were checked")

    monkeypatch.setattr(local_solver, "solve_local", no_solve)
    zs = partition.extend_state(part30, truth30)
    kwargs = {
        "z0-one-state-short": {"z0": zs[:3]},
        "z0-entries-short": {"z0": [z[:-4] for z in zs]},
        "truth-short": {"truth": truth30[:-4]},
    }[bad]
    with pytest.raises(DimensionMismatch):
        run(part30, mset30, **kwargs)


@pytest.mark.parametrize("run", METHODS)
def test_inner_divergence_ends_the_run_with_a_note(monkeypatch, part30, mset30, run):
    solve = local_solver.solve_local
    calls = 0

    def diverge_in_second_iteration(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > part30.n_regions:
            raise InnerDiverged("line search made no progress")
        return solve(*args, **kwargs)

    monkeypatch.setattr(local_solver, "solve_local", diverge_in_second_iteration)
    result = run(part30, mset30)
    assert not result.converged
    assert result.iterations == 1
    assert result.note.startswith("inner solve diverged at outer iteration 2")


@pytest.mark.parametrize("run", METHODS)
def test_a_singular_region_system_ends_the_run_with_a_note(monkeypatch, part30, mset30, run):
    solve = local_solver.solve_local
    calls = 0

    def singular_in_second_iteration(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == part30.n_regions + 2:
            raise SingularKkt("KKT system singular even after ridge regularization")
        return solve(*args, **kwargs)

    monkeypatch.setattr(local_solver, "solve_local", singular_in_second_iteration)
    result = run(part30, mset30)
    assert not result.converged
    assert result.iterations == 1
    assert result.note.startswith("inner solve singular at outer iteration 2 in region 1")


def test_a_singular_consensus_qp_ends_the_run_with_a_note(monkeypatch, part30, mset30):
    def singular(*args, **kwargs):
        raise SingularKkt("KKT system singular even after ridge regularization")

    monkeypatch.setattr(coordinator, "solve_consensus", singular)
    result = aladin.run_aladin(part30, mset30)
    assert not result.converged
    assert result.iterations == 0
    assert result.note.startswith("consensus QP singular at outer iteration 1")


@pytest.mark.parametrize("run", METHODS)
def test_nonconverged_inner_solves_are_named_in_the_note(monkeypatch, part30, mset30, run):
    solve = local_solver.solve_local
    consensus = coordinator.solve_consensus
    converged = []

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        converged.append(sol.converged)
        return sol

    monkeypatch.setattr(local_solver, "solve_local", recording)
    # Every ALADIN consensus step reports a ridge, so its note comes first.
    monkeypatch.setattr(coordinator, "solve_consensus",
                        lambda *a, **k: dataclasses.replace(consensus(*a, **k), regularized=True))
    monkeypatch.setattr(aladin, "MAX_INNER", 1)
    result = run(part30, mset30, config=aladin.RunConfig(max_outer=2))
    assert result.iterations == 2
    assert not all(converged)
    n = part30.n_regions
    for record in result.history:
        flags = converged[(record.iteration - 1) * n: record.iteration * n]
        stalled = "|".join(str(i) for i, ok in enumerate(flags) if not ok)
        expected = [f"inner solve not converged in regions {stalled}"] if stalled else []
        if record.regularized:
            expected.insert(0, "ridge-regularized consensus step")
        assert record.note == "; ".join(expected)


@pytest.mark.filterwarnings("ignore:KKT factorization failed")
@pytest.mark.parametrize("rho", [10.0**e for e in range(9)])
def test_every_penalty_converges_or_ends_with_a_note(part30, mset30, rho):
    result = aladin.run_aladin(part30, mset30, config=aladin.RunConfig(rho=rho))
    assert result.converged or result.note
    assert len(result.history) == result.iterations


def test_a_consensus_step_to_a_zero_voltage_ends_the_run_with_a_note(part30, mset30):
    # At rho = 1 the fourth consensus step leaves a voltage <= 0 in region 0.
    result = aladin.run_aladin(part30, mset30, config=aladin.RunConfig(rho=1.0))
    assert not result.converged
    assert result.iterations == 4
    assert result.note == (
        "inner solve diverged at outer iteration 5 in region 0: line measurement functions need v_k > 0"
    )


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("rho", "eps") for v in (np.nan, np.inf, -np.inf, 0.0, -1.0)]
    + [("max_outer", 0), ("max_outer", -1), ("max_outer", 2.0)],
)
def test_run_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValidationError, match=field):
        aladin.RunConfig(**{field: value})


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_connected_partitions_converge(case30, truth30, n_regions, seed):
    part = partition.partition_grid(case30, random_connected_assignment(case30, n_regions, seed))
    mset = measurements.simulate_measurements(
        case30, truth30, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part),
    )
    result = aladin.run_aladin(part, mset, config=aladin.RunConfig(max_outer=10))
    assert result.converged, result.note
    for record in result.history:
        assert not record.regularized
        assert record.note == ""
