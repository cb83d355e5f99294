from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import tiling
from gridest import (
    admm, aladin, caseio, central, coordinator, grid, linalg, local_solver, measurements, partition, powerflow,
)
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


@pytest.mark.parametrize("start", [aladin.INNER_TOL, 1e-14])
def test_a_tighter_start_tolerance_costs_inner_iterations_only(monkeypatch, aladin30, part30, mset30, truth30, start):
    """The relative first-iteration stop, at a start tolerance of
    INNER_TOL or 1e-14 (and the same floor in later iterations), costs
    inner iterations but no outer one."""
    monkeypatch.setattr(aladin, "INNER_TOL_START", start)
    tight = aladin.run_aladin(part30, mset30, truth=truth30)
    assert all(record.inner_tol == start for record in tight.history)
    assert tight.iterations == aladin30.iterations
    assert all(record.note == "" for record in tight.history)
    first = zip(tight.history[0].inner_iterations, aladin30.history[0].inner_iterations)
    assert all(more > fewer for more, fewer in first)
    assert (sum(sum(record.inner_iterations) for record in tight.history)
            > sum(sum(record.inner_iterations) for record in aladin30.history))


def test_first_iteration_solves_stop_relative_to_their_start(monkeypatch, aladin30, part30, mset30):
    """A flat start's KKT residual is far above 1, so iteration 1 stops at
    INNER_TOL_START times it, within 3 steps per region; later iterations
    keep the absolute schedule, and the run still takes 3 iterations."""
    assert aladin30.iterations == 3
    assert max(aladin30.history[0].inner_iterations) <= 3
    solve = local_solver.solve_batch
    sols = []

    def recording(*args, **kwargs):
        sols.extend(solve(*args, **kwargs))
        return sols[-part30.n_regions:]

    monkeypatch.setattr(local_solver, "solve_batch", recording)
    result = aladin.run_aladin(part30, mset30)
    n = part30.n_regions
    assert [sol.inner_iterations for sol in sols[:n]] == list(aladin30.history[0].inner_iterations)
    assert all(sol.tol > 1e3 * aladin.INNER_TOL_START for sol in sols[:n])
    for record in result.history[1:]:
        for sol in sols[(record.iteration - 1) * n: record.iteration * n]:
            assert sol.tol == record.inner_tol
            assert sol.converged and sol.kkt_residual <= sol.tol


@pytest.fixture(scope="module")
def grid240():
    """The 8-tile grid with one region per tile, its true state and its
    seed-1 measurements."""
    case = tiling.tiled_case(8)
    part = partition.partition_grid(case, tiling.tile_assignment(case))
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=1, measured_lines=partition.internal_line_keys(part)
    )
    return case, part, truth, mset


def test_the_240_bus_grid_stops_its_first_solves_early_and_matches_central(grid240):
    """With two_tile30, the second tiled size: 8 tiles, seed 1."""
    case, part, _, mset = grid240
    result = aladin.run_aladin(part, mset)
    assert result.converged, result.note
    assert result.iterations == 3
    assert max(result.history[0].inner_iterations) <= 3
    gap = np.abs(partition.restrict_state(part, result.zs) - central.solve_central(case, mset).x).max()
    assert gap <= 1e-5


def test_the_240_bus_grid_reruns_to_the_same_history_bytes(grid240):
    """A second run in the same process meets every per-pattern cache warm
    (structural rank, reduced-step plan) and must not move a bit."""
    _, part, truth, mset = grid240
    first, second = (aladin.run_aladin(part, mset, truth=truth) for _ in range(2))
    assert first.converged and second.converged
    assert [caseio.history_row(r) for r in first.history] == [caseio.history_row(r) for r in second.history]
    for za, zb in zip(first.zs, second.zs):
        assert np.array_equal(za, zb)
    assert np.array_equal(first.lam, second.lam)


def test_pretransposed_couplings_give_the_same_bits(part30):
    lam = np.random.default_rng(3).standard_normal(part30.n_coupling_rows)
    for a in part30.coupling:
        assert np.array_equal(linalg.matvec(a.T.tocsr(), lam), linalg.matvec(a, lam, trans=True))


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

    monkeypatch.setattr(local_solver, "solve_batch", no_solve)
    zs = partition.extend_state(part30, truth30)
    kwargs = {
        "z0-one-state-short": {"z0": zs[:3]},
        "z0-entries-short": {"z0": [z[:-4] for z in zs]},
        "truth-short": {"truth": truth30[:-4]},
    }[bad]
    with pytest.raises(DimensionMismatch):
        run(part30, mset30, **kwargs)


@pytest.mark.parametrize("run", METHODS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["z0", "truth"])
def test_non_finite_states_fail_before_any_solve(monkeypatch, part30, mset30, truth30, run, value, field):
    def no_solve(*args, **kwargs):
        raise AssertionError("a region solve ran before the inputs were checked")

    monkeypatch.setattr(local_solver, "solve_batch", no_solve)
    zs = partition.extend_state(part30, truth30)
    zs[2][5] = value
    truth = truth30.copy()
    truth[7] = value
    with pytest.raises(ValidationError, match=field):
        run(part30, mset30, **{field: {"z0": zs, "truth": truth}[field]})


@pytest.mark.parametrize("run", METHODS)
def test_inner_divergence_ends_the_run_with_a_note(monkeypatch, part30, mset30, run):
    solve = local_solver.solve_batch
    calls = 0

    def diverge_in_second_iteration(*args, **kwargs):
        nonlocal calls
        calls += 1
        outcomes = solve(*args, **kwargs)
        if calls > 1:
            outcomes[0] = InnerDiverged("line search made no progress")
        return outcomes

    monkeypatch.setattr(local_solver, "solve_batch", diverge_in_second_iteration)
    result = run(part30, mset30)
    assert not result.converged
    assert result.iterations == 1
    assert result.note.startswith("inner solve diverged at outer iteration 2")


@pytest.mark.parametrize("run", METHODS)
def test_a_singular_region_system_ends_the_run_with_a_note(monkeypatch, part30, mset30, run):
    solve = local_solver.solve_batch
    calls = 0

    def singular_in_second_iteration(*args, **kwargs):
        nonlocal calls
        calls += 1
        outcomes = solve(*args, **kwargs)
        if calls == 2:
            outcomes[1] = SingularKkt("KKT system singular even after ridge regularization")
        return outcomes

    monkeypatch.setattr(local_solver, "solve_batch", singular_in_second_iteration)
    result = run(part30, mset30)
    assert not result.converged
    assert result.iterations == 1
    assert result.note.startswith("inner solve singular at outer iteration 2 in region 1")


def _region_batches(monkeypatch, run, part, mset, **kwargs):
    """(y0, blocks, keyword arguments, outcomes) of every region batch of one run."""
    solve = local_solver.solve_batch
    batches = []

    def recording(residual, constraints, y0, blocks, **kw):
        batches.append((y0, blocks, kw, solve(residual, constraints, y0, blocks, **kw)))
        return batches[-1][3]

    monkeypatch.setattr(local_solver, "solve_batch", recording)
    run(part, mset, **kwargs)
    monkeypatch.setattr(local_solver, "solve_batch", solve)
    return batches


def _bitwise_equal(a, b):
    arrays = ("y", "kappa")
    scalars = ("fit", "inner_iterations", "kkt_residual", "tol", "converged")
    return (all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays)
            and all(getattr(a, f) == getattr(b, f) for f in scalars))


@pytest.mark.parametrize("run", METHODS)
@pytest.mark.parametrize("grid_name", ["part30", "two_tile30"])
def test_a_region_batch_keeps_every_other_region_bit_for_bit(monkeypatch, request, part30, mset30, run, grid_name):
    """Perturbing one region's measurements leaves every other region's
    first-iteration solution identical to the last bit."""
    part, mset = (part30, mset30) if grid_name == "part30" else request.getfixturevalue("two_tile30")
    config = aladin.RunConfig(max_outer=1)
    base = _region_batches(monkeypatch, run, part, mset, config=config)[0][3]
    region_of = np.array([part.assignment[node] for node in mset.node_ids])
    for j in range(part.n_regions):
        values = mset.node_values * np.where(region_of == j, 1.0 + 1e-3, 1.0)[:, None]
        perturbed = dataclasses.replace(mset, node_values=values)
        sols = _region_batches(monkeypatch, run, part, perturbed, config=config)[0][3]
        for i, (a, b) in enumerate(zip(base, sols)):
            assert _bitwise_equal(a, b) == (i != j), (j, i)


@pytest.mark.parametrize("run", METHODS)
def test_each_batched_region_solution_is_the_single_region_solution(monkeypatch, part30, mset30, two_tile30, run):
    """Every region solve of whole runs on part30 and two_tile30, solved
    again alone on that region's own models from the same start and terms."""
    for part, mset in ((part30, mset30), two_tile30):
        region_sets = measurements.split_by_region(mset, part)
        problems = [(measurements.RegionResidual(r.case, s), grid.PowerFlowModel(r.case))
                    for r, s in zip(part.regions, region_sets)]
        batches = _region_batches(monkeypatch, run, part, mset)
        assert len(batches) >= 3
        for y0, blocks, kw, outcomes in batches:
            # ALADIN's prox acts on every state of the union.
            idx = np.arange(len(y0)) if kw["prox_idx"] is None else kw["prox_idx"]
            for i, ((residual, model), batched) in enumerate(zip(problems, outcomes)):
                s = blocks.states(i)
                mine = (idx >= s.start) & (idx < s.stop)
                alone = local_solver.solve_local(
                    residual, model, y0[s], rho=kw["rho"], lin=kw["lin"][s],
                    prox_target=kw["prox_target"][mine], prox_idx=idx[mine] - s.start,
                    tol=kw["tol"], max_inner=kw["max_inner"], relative=kw["relative"],
                )
                assert alone.inner_iterations == batched.inner_iterations
                assert alone.converged == batched.converged
                assert np.abs(alone.y - batched.y).max() <= 1e-10
                assert np.abs(alone.kappa - batched.kappa).max() <= 1e-10


@pytest.mark.parametrize("run", METHODS)
@pytest.mark.parametrize("grid_name", ["part30", "grid240"])
def test_the_union_loop_keeps_the_region_by_region_definitions(monkeypatch, request, part30, mset30, truth30,
                                                               run, grid_name):
    """The outer loop carries one iterate on the regions' union.  Every
    history row still reads the per-region definitions of its batch, each
    next iterate is the batch's union solution plus the one consensus step
    (ALADIN) or that solution (ADMM), and RunResult.zs is the last iterate
    split by region."""
    if grid_name == "part30":
        part, mset, truth = part30, mset30, truth30
    else:
        _, part, truth, mset = request.getfixturevalue("grid240")
    consensus, steps = coordinator.solve_consensus, []

    def recording(*args, **kwargs):
        sol = consensus(*args, **kwargs)
        assert sol.step.shape == (part.border.shape[1],)
        steps.append(sol.step)
        return sol

    monkeypatch.setattr(coordinator, "solve_consensus", recording)
    results = []
    batches = _region_batches(monkeypatch, lambda *a, **kw: results.append(run(*a, **kw)), part, mset,
                              config=aladin.RunConfig(max_outer=30), truth=truth)
    (result,) = results
    assert len(batches) == len(result.history) >= 3
    steps += [None] * (len(batches) - len(steps))
    next_iterates = [y0 for y0, *_ in batches[1:]] + [np.concatenate(result.zs)]
    for (y0, blocks, _, sols), record, step, z_next in zip(batches, result.history, steps, next_iterates):
        zs = [y0[blocks.states(i)] for i in range(part.n_regions)]
        ys = [sol.y for sol in sols]
        gap = np.zeros(part.n_coupling_rows)
        for a, y in zip(part.coupling, ys):
            gap += a @ y
        assert record.consensus_violation == np.abs(gap).max()
        assert record.step_norm == max(np.abs(y - z).max() for y, z in zip(ys, zs))
        assert record.state_error == np.abs(partition.restrict_state(part, ys) - truth).max()
        y = np.concatenate(ys)
        assert np.array_equal(z_next, y if step is None else y + step), record.iteration
    assert [z.shape for z in result.zs] == [(region.n_states,) for region in part.regions]


def _scenario(request, grid_name):
    """(partition, measurement set) of part30, two_tile30 or grid240."""
    if grid_name == "part30":
        return request.getfixturevalue("part30"), request.getfixturevalue("mset30")
    if grid_name == "two_tile30":
        return request.getfixturevalue("two_tile30")
    _, part, _, mset = request.getfixturevalue("grid240")
    return part, mset


@pytest.mark.parametrize("grid_name", ["part30", "two_tile30", "grid240"])
def test_the_union_physics_is_the_fragments_side_by_side(request, grid_name):
    """The batch's power flow model is the fragments' models on the
    diagonal: its admittance is the block diagonal of theirs, values and
    pattern, and at a union state each region's rows and columns of its
    Jacobian are the fragment's Jacobian at the region's state, bit for
    bit, with no entry outside those blocks."""
    part, mset = _scenario(request, grid_name)
    _, model, blocks = aladin._region_batch(part, mset)
    fragments = [grid.PowerFlowModel(region.case) for region in part.regions]
    union, expected = model.admittance, scipy.sparse.block_diag([f.admittance for f in fragments], format="csr")
    for name in ("indptr", "indices", "data"):
        assert getattr(union, name).tobytes() == getattr(expected, name).tobytes(), name
    rng = np.random.default_rng(DEFAULT_SEED)
    y = np.concatenate([grid.flat_state(region.case.n_bus) for region in part.regions])
    y += 0.1 * rng.standard_normal(y.shape)
    jac = model.jacobian(y)
    assert jac.nnz == sum(f.jacobian(y[blocks.states(i)]).nnz for i, f in enumerate(fragments))
    for i, fragment in enumerate(fragments):
        s = blocks.states(i)
        mine, alone = local_solver._block(jac, blocks.constraints(i), s), fragment.jacobian(y[s]).tocsr()
        for name in ("indptr", "indices", "data"):
            assert getattr(mine, name).tobytes() == getattr(alone, name).tobytes(), (i, name)


def _per_region_uploads(part, residual, model, blocks, y):
    """Each region's own upload at the union solution y, cut from the
    batch's Jacobians region by region: B_i^T B_i, B_i^T b_i, C_i, A_i y_i."""
    big_b, b, big_c = residual.jacobian(y), residual.eval(y), model.jacobian(y)
    uploads = []
    for i, coupling in enumerate(part.coupling):
        s, rows = blocks.states(i), blocks.residual_rows[i]
        b_i = local_solver._block(big_b, rows, s)
        uploads.append(coordinator.SensitivityUpload(
            fit_hessian=linalg.gram(b_i), fit_gradient=linalg.matvec(b_i, b[rows], trans=True),
            constraint_jacobian=local_solver._block(big_c, blocks.constraints(i), s),
            coupling_image=linalg.matvec(coupling, y[s]),
        ))
    return uploads


@pytest.mark.parametrize("grid_name", ["part30", "two_tile30", "grid240"])
def test_the_union_upload_solves_as_the_per_region_uploads(monkeypatch, request, grid_name):
    """Every consensus call of a run gets one upload for the whole batch.
    The region-by-region uploads at the same solution, solved with the
    regions' own coupling blocks, give the same steps, lam and ridge flag
    to the last bit."""
    part, mset = _scenario(request, grid_name)
    consensus, calls = coordinator.solve_consensus, []

    def recording(uploads, couplings):
        calls.append((uploads, couplings, consensus(uploads, couplings)))
        return calls[-1][2]

    monkeypatch.setattr(coordinator, "solve_consensus", recording)
    batches = _region_batches(monkeypatch, aladin.run_aladin, part, mset)
    assert len(calls) == len(batches) - 1 >= 2
    residual, model, _ = aladin._region_batch(part, mset)
    for (_, blocks, _, sols), (uploads, couplings, union) in zip(batches, calls):
        assert len(uploads) == len(couplings) == 1 and couplings[0] is part.border
        y = np.concatenate([sol.y for sol in sols])
        per_region = consensus(_per_region_uploads(part, residual, model, blocks, y), list(part.coupling))
        assert per_region.step.tobytes() == union.step.tobytes()
        assert per_region.multipliers.tobytes() == union.multipliers.tobytes()
        assert per_region.regularized == union.regularized


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
    solve = local_solver.solve_batch
    consensus = coordinator.solve_consensus
    converged = []

    def recording(*args, **kwargs):
        sols = solve(*args, **kwargs)
        converged.extend(sol.converged for sol in sols)
        return sols

    monkeypatch.setattr(local_solver, "solve_batch", recording)
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


@pytest.mark.parametrize("seed", [1, 2, 3, DEFAULT_SEED])
def test_every_penalty_from_1e2_to_1e8_reaches_the_central_optimum(case30, part30, truth30, seed):
    """The reduced region Hessian grows with rho as a whole, so a large
    penalty no longer reads as a singular region system, as the bordered
    matrix's constraint pivots, shrinking like 1/rho, did from 1e7."""
    mset = measurements.simulate_measurements(
        case30, truth30, rng=seed, measured_lines=partition.internal_line_keys(part30)
    )
    reference = central.solve_central(case30, mset).x
    for rho in [10.0**e for e in range(2, 9)]:
        result = aladin.run_aladin(part30, mset, config=aladin.RunConfig(rho=rho))
        assert result.converged, f"rho={rho:g}: {result.note}"
        gap = np.abs(partition.restrict_state(part30, result.zs) - reference).max()
        assert gap <= 1e-5, f"rho={rho:g}: gap to central {gap:.3e}"


def test_the_480_bus_grid_converges_at_rho_1e8():
    case = tiling.tiled_case(16)
    part = partition.partition_grid(case, tiling.tile_assignment(case))
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=1, measured_lines=partition.internal_line_keys(part)
    )
    result = aladin.run_aladin(part, mset, config=aladin.RunConfig(rho=1e8))
    assert result.converged, result.note


def test_a_consensus_step_to_a_zero_voltage_ends_the_run_with_a_note(monkeypatch, part30, mset30):
    consensus = coordinator.solve_consensus
    calls = 0

    def dropping(*args, **kwargs):
        # The second consensus step leaves every voltage of the union <= 0;
        # the note names region 0, the lowest.
        nonlocal calls
        calls += 1
        sol = consensus(*args, **kwargs)
        if calls == 2:
            sol.step[grid.V::4] -= 2.0
        return sol

    monkeypatch.setattr(coordinator, "solve_consensus", dropping)
    result = aladin.run_aladin(part30, mset30)
    assert not result.converged
    assert result.iterations == 2
    assert result.note == (
        "inner solve diverged at outer iteration 3 in region 0: line measurement functions need v_k > 0"
    )


@pytest.mark.parametrize("run", METHODS)
def test_the_note_names_the_lowest_failing_region_while_the_others_solve(monkeypatch, part30, mset30, run):
    """Regions 1 and 3 start outer iteration 2 at voltages <= 0: both fail
    in the batch, regions 0 and 2 still converge, and the note names 1."""
    solve = local_solver.solve_batch
    batches = []

    def dropping(residual, constraints, y0, blocks, **kwargs):
        if batches:
            y0 = y0.copy()
            for i in (1, 3):
                y0[blocks.states(i)][grid.V::4] -= 2.0
        batches.append(solve(residual, constraints, y0, blocks, **kwargs))
        return batches[-1]

    monkeypatch.setattr(local_solver, "solve_batch", dropping)
    result = run(part30, mset30)
    assert not result.converged
    assert result.iterations == 1
    assert result.note == (
        "inner solve diverged at outer iteration 2 in region 1: line measurement functions need v_k > 0"
    )
    outcomes = batches[1]
    assert [type(o).__name__ for o in outcomes] == ["LocalSolution", "ZeroVoltage", "LocalSolution", "ZeroVoltage"]
    assert outcomes[0].converged and outcomes[2].converged


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("rho", "eps") for v in (np.nan, np.inf, -np.inf, 0.0, -1.0)]
    + [("max_outer", 0), ("max_outer", -1), ("max_outer", 2.0)]
    + [(f, True) for f in ("rho", "eps", "max_outer")]
    + [(f, np.True_) for f in ("rho", "eps", "max_outer")]
    + [("rho", "1"), ("eps", None), ("rho", 1j)],
)
def test_run_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValidationError, match=field):
        aladin.RunConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("rho", np.float64(1e3)), ("eps", np.float32(1e-3)), ("max_outer", np.int64(3)), ("max_outer", np.uint8(3)),
])
def test_run_config_accepts_numpy_scalars(field, value):
    assert getattr(aladin.RunConfig(**{field: value}), field) == value


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


def test_the_final_iteration_builds_no_upload(monkeypatch, part30, mset30):
    """Every coordinating iteration builds one upload for the whole batch;
    the last iteration stops before the consensus QP, so it counts its
    upload by shape without building one."""
    built = []
    upload = coordinator.SensitivityUpload

    def counting(**kwargs):
        built.append(kwargs)
        return upload(**kwargs)

    monkeypatch.setattr(coordinator, "SensitivityUpload", counting)
    result = aladin.run_aladin(part30, mset30)
    assert result.converged and result.iterations >= 2
    assert len(built) == result.iterations - 1
    assert [r.upload_floats for r in result.history] == [result.formula.upload_total] * result.iterations


@pytest.mark.parametrize("run", METHODS)
@pytest.mark.parametrize("stray", ["cut-line", "node-outside"])
def test_a_stray_measurement_fails_as_split_by_region_does(monkeypatch, case30, part30, truth30, mset30, run, stray):
    if stray == "cut-line":
        cut = part30.aux_pairs[0]
        lines = [*partition.internal_line_keys(part30), (cut.low_bus, cut.high_bus)]
        mset = measurements.simulate_measurements(case30, truth30, rng=1, measured_lines=lines)
    else:
        mset = dataclasses.replace(mset30, node_ids=(*mset30.node_ids[:-1], 999))
    with pytest.raises(ValidationError) as expected:
        measurements.split_by_region(mset, part30)

    def no_solve(*args, **kwargs):
        raise AssertionError("a region solve ran with a stray measurement")

    monkeypatch.setattr(local_solver, "solve_batch", no_solve)
    with pytest.raises(ValidationError) as raised:
        run(part30, mset)
    assert str(raised.value) == str(expected.value)
    assert ("999" if stray == "node-outside" else f"({cut.low_bus}, {cut.high_bus})") in str(raised.value)


def _reversed(mset):
    return measurements.MeasurementSet(
        mset.node_ids[::-1], mset.node_values[::-1], mset.node_weights[::-1],
        mset.line_ends[::-1], mset.line_values[::-1], mset.line_weights[::-1],
    )


def _split_and_glued(part, mset, case):
    """The union residual on case built from per-region sets: split mset by
    region, label each region's ids by the region's bus offset plus their
    position in its fragment, and concatenate the pieces in region order."""
    region_sets = measurements.split_by_region(mset, part)
    node_ids, line_ends, offset = [], [], 0
    for region, rset in zip(part.regions, region_sets):
        index = region.case.index
        node_ids += [offset + index[node] for node in rset.node_ids]
        line_ends += [(offset + index[k], offset + index[l]) for k, l in rset.line_ends]
        offset += region.case.n_bus
    glued = measurements.MeasurementSet(
        tuple(node_ids), np.concatenate([s.node_values for s in region_sets]),
        np.concatenate([s.node_weights for s in region_sets]), tuple(line_ends),
        np.concatenate([s.line_values for s in region_sets]), np.concatenate([s.line_weights for s in region_sets]),
    )
    return measurements.RegionResidual(case, glued)


@pytest.mark.parametrize("order", ["input", "reversed"])
@pytest.mark.parametrize("grid_name", ["part30", "two_tile30", "grid240"])
def test_the_batch_residual_rows_are_the_split_and_glued_ones(request, grid_name, order):
    part, mset = _scenario(request, grid_name)
    if order == "reversed":
        mset = _reversed(mset)
    residual, _, _ = aladin._region_batch(part, mset)
    reference = _split_and_glued(part, mset, residual.case)
    assert residual.node_ids == reference.node_ids
    assert residual.line_ends == reference.line_ends
    for name in ("node_values", "node_sqrt_w", "line_values", "line_sqrt_w"):
        assert getattr(residual, name).tobytes() == getattr(reference, name).tobytes(), name
        assert getattr(residual, name).shape == getattr(reference, name).shape, name


def _renamed(case, old, new):
    def rename(bus_id):
        return new if bus_id == old else bus_id

    return grid.GridCase(
        name=case.name, base_mva=case.base_mva,
        buses=tuple(dataclasses.replace(bus, id=rename(bus.id)) for bus in case.buses),
        lines=tuple(dataclasses.replace(line, from_bus=rename(line.from_bus), to_bus=rename(line.to_bus))
                    for line in case.lines),
    )


@pytest.mark.parametrize("run", METHODS)
def test_a_bus_id_beyond_int64_gives_the_same_history(case6, run):
    """Bus ids are unbounded integers: a fragment id beyond int64 is mapped
    to its union position like any other."""
    _, assignment = caseio.builtin_partition_spec("six2")
    outcomes = []
    for new_id in (6, 10**20):
        case = _renamed(case6, 6, new_id)
        part = partition.partition_grid(case, {(new_id if bus == 6 else bus): r for bus, r in assignment.items()})
        truth = powerflow.solve_power_flow(case).state
        mset = measurements.simulate_measurements(
            case, truth, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part)
        )
        result = run(part, mset, truth=truth)
        outcomes.append(([caseio.history_row(r) for r in result.history], result.converged, result.zs))
    (rows, converged, zs), (big_rows, big_converged, big_zs) = outcomes
    assert max(case6.bus_ids) == 6 and converged and big_converged
    assert big_rows == rows
    assert all(np.array_equal(a, b) for a, b in zip(zs, big_zs))
