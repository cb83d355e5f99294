from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import aladin, central, grid, linalg, measurements, partition, posterior, powerflow
from gridest.errors import DimensionMismatch, SingularBordered, ValidationError

from conftest import DEFAULT_SEED, coupling_form_params, random_connected_assignment
import tiling


def _single_bus_report(w_theta=1e4, w_v=1e5, w_p=1e4, w_q=1e4):
    case = grid.GridCase("one", 100.0, (grid.Bus(1, "slack"),), ())
    truth = np.array([0.0, 1.0, 0.0, 0.0])
    mset = measurements.simulate_measurements(
        case, truth, noise=None, rng=0,
        node_weights=np.array([w_theta, w_v, w_p, w_q]),
    )
    return posterior.analyze_central(case, mset, truth)


def test_unconstrained_variance_is_the_inverse_weight():
    # One bus, no lines: theta and v are measured only, p and q are pinned
    # to zero by the (trivial) power flow rows.
    report = _single_bus_report()
    assert report.abs_std[0, 0] == pytest.approx(1.0 / np.sqrt(1e4), rel=1e-10)
    assert report.abs_std[0, 1] == pytest.approx(1.0 / np.sqrt(1e5), rel=1e-10)
    assert report.abs_std[0, 2] == pytest.approx(0.0, abs=1e-9)
    assert report.abs_std[0, 3] == pytest.approx(0.0, abs=1e-9)


def test_variances_scale_inversely_with_the_weights(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, rng=3)
    scaled = measurements.simulate_measurements(
        case6, truth6, rng=3,
        node_weights=4.0 * measurements.default_node_weights(),
        line_weights=4.0 * measurements.default_line_weights(),
    )
    a = posterior.analyze_central(case6, mset, truth6)
    b = posterior.analyze_central(case6, scaled, truth6)
    mask = a.state_std > 1e-12
    assert np.allclose(b.state_std[mask], 0.5 * a.state_std[mask], rtol=1e-8)


def test_covariance_is_symmetric_psd(case30, mset30, central30):
    report = posterior.analyze_central(case30, mset30, central30.x)
    cov = report.covariance
    assert np.abs(cov - cov.T).max() <= 1e-12 * (1.0 + np.abs(cov).max())
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_distributed_report_on_a_single_region_matches_central(case6, truth6):
    from gridest import partition

    mset = measurements.simulate_measurements(case6, truth6, rng=6)
    part = partition.partition_grid(case6, {b: 0 for b in case6.bus_ids})
    by_region = posterior.analyze(part, mset, [truth6])
    direct = posterior.analyze_central(case6, mset, truth6)
    assert by_region.node_ids == direct.node_ids
    assert np.allclose(by_region.abs_std, direct.abs_std, atol=1e-10)


def test_distributed_report_covers_original_nodes(part30, mset30, aladin30):
    report = posterior.analyze(part30, mset30, aladin30.zs)
    assert report.node_ids == part30.case.bus_ids
    assert report.abs_std.shape == (30, 4)
    # Aux copies enter the covariance but never the per-node report.
    assert report.covariance.shape[0] == sum(r.n_states for r in part30.regions)


def test_distributed_bound_equals_central_under_exact_coupling(case30, part30, mset30, central30):
    """With the midpoint balance rows the decomposed network is the original
    one, so at the extended central optimum the distributed bound on the
    original nodes is the central bound."""
    from gridest import partition

    distributed = posterior.analyze(part30, mset30, partition.extend_state(part30, central30.x))
    direct = posterior.analyze_central(case30, mset30, central30.x)
    assert distributed.node_ids == direct.node_ids
    assert np.abs(distributed.abs_std - direct.abs_std).max() <= 1e-12 * direct.abs_std.max()


def test_render_table_stars_excluded_cells_and_undefined_averages():
    assert posterior.render_table(_single_bus_report()) == (
        "node       theta         v         p         q\n"
        "1              *     0.32%         *         *\n"
        "AVG            *     0.32%         *         *"
    )


def test_relative_columns_exclude_small_nominals():
    report = _single_bus_report()
    # theta, p, q nominal are zero: excluded from relative statistics.
    assert report.excluded[0, 0] and report.excluded[0, 2] and report.excluded[0, 3]
    assert not report.excluded[0, 1]
    assert np.isnan(report.rel_std[0, 0])
    assert report.rel_std[0, 1] == pytest.approx(report.abs_std[0, 1])
    assert np.isnan(report.averages[0])
    assert report.averages[1] == pytest.approx(report.abs_std[0, 1])


def test_render_table_layout(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, rng=2)
    report = posterior.analyze_central(case6, mset, truth6)
    text = posterior.render_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["node", "theta", "v", "p", "q"]
    assert len(lines) == case6.n_bus + 2
    assert lines[-1].startswith("AVG")
    # The slack angle is nominally zero, so its relative cell is starred.
    slack_row = lines[1].split()
    assert slack_row[0] == "1"
    assert slack_row[1] == "*"
    assert slack_row[2].endswith("%")


def test_monte_carlo_consistency(monkeypatch, case6, truth6):
    """The reported standard deviations match the scatter of repeated
    estimations when the weights equal the true inverse noise variances."""
    # A noise floor above every |true value| makes the standard deviation
    # constant per channel, so the matched weights are exactly expressible.
    floor = 2.0
    noise = measurements.NoiseConfig(floor=floor)
    node_w = 1.0 / (
        np.array([noise.rel_var_theta, noise.rel_var_v, noise.rel_var_p, noise.rel_var_q])
        * floor**2
    )
    line_w = np.full(3, 1.0 / (noise.rel_var_line * floor**2))

    exact = measurements.simulate_measurements(
        case6, truth6, noise=None, rng=0, node_weights=node_w, line_weights=line_w
    )
    bound = posterior.analyze_central(case6, exact, truth6).state_std

    # The heavy matched weights raise the float64 stationarity floor above
    # the default tolerance; 1e-8 is far below the statistics.
    monkeypatch.setattr(central, "TOL", 1e-8)
    rng = np.random.default_rng(99)
    reps = 500
    estimates = np.empty((reps, truth6.size))
    for r in range(reps):
        mset = measurements.simulate_measurements(
            case6, truth6, noise=noise, rng=rng,
            node_weights=node_w, line_weights=line_w,
        )
        estimates[r] = central.solve_central(case6, mset, x0=truth6).x
    mc_std = estimates.std(axis=0, ddof=1)

    meaningful = bound > 1e-6
    assert meaningful.sum() >= 12
    ratio = mc_std[meaningful] / bound[meaningful]
    assert np.abs(ratio - 1.0).max() <= 0.25


def _dense_covariance(fit_jacobians, constraint_jacobians, couplings):
    """Reference: dense bordered matrix factored with LU (solve_linear)."""
    hess = scipy.linalg.block_diag(*[bj.T @ bj for bj in fit_jacobians])
    cons = scipy.linalg.block_diag(*constraint_jacobians)
    cons = np.vstack([cons, np.hstack([a.toarray() for a in couplings])])
    bordered = np.block([[hess, cons.T], [cons, np.zeros((len(cons), len(cons)))]])
    n = hess.shape[0]
    rhs = np.zeros((bordered.shape[0], n))
    rhs[:n] = np.eye(n)
    cov = linalg.solve_linear(bordered, rhs)[:n]
    return 0.5 * (cov + cov.T)


def _region_jacobians(part, mset, zs):
    """covariance_bound arguments for a partition at the region states zs."""
    fit, cons = [], []
    for region, region_set, z in zip(part.regions, measurements.split_by_region(mset, part), zs):
        fit.append(measurements.RegionResidual(region.case, region_set).jacobian(z).toarray())
        cons.append(grid.PowerFlowModel(region.case).jacobian(z).toarray())
    return fit, cons, list(part.coupling)


def _covariance_inputs(request, name):
    """covariance_bound arguments at an estimate of the named scenario."""
    if name == "central30":
        case30, mset30 = request.getfixturevalue("case30"), request.getfixturevalue("mset30")
        x = request.getfixturevalue("central30").x
        # One block with no coupling: the zero-row coupling of a one-region partition.
        return ([measurements.RegionResidual(case30, mset30).jacobian(x).toarray()],
                [grid.PowerFlowModel(case30).jacobian(x).toarray()], [scipy.sparse.csr_array((0, x.size))])
    if name == "ieee30":
        part, mset = request.getfixturevalue("part30"), request.getfixturevalue("mset30")
        return _region_jacobians(part, mset, request.getfixturevalue("aladin30").zs)
    if name == "ieee30_one_region":
        # A single region has no auxiliary buses and zero coupling rows.
        case30, mset30 = request.getfixturevalue("case30"), request.getfixturevalue("mset30")
        part = partition.partition_grid(case30, {b: 0 for b in case30.bus_ids})
        return _region_jacobians(part, mset30, [request.getfixturevalue("central30").x])
    if name == "two_tile30":
        part, mset = request.getfixturevalue("two_tile30")
    else:
        suffix = {"six2": "6", "twelve3": "12"}[name]
        part, truth = request.getfixturevalue(f"part{suffix}"), request.getfixturevalue(f"truth{suffix}")
        mset = measurements.simulate_measurements(
            part.case, truth, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part)
        )
    return _region_jacobians(part, mset, aladin.run_aladin(part, mset).zs)


def _assert_matches_the_dense_reference(args, form=list):
    """form maps the run's CSR couplings to the kind covariance_bound
    receives; the reference reads them as CSR."""
    cov = posterior.covariance_bound(*args[:2], form(args[2]))
    reference = _dense_covariance(*args)
    assert np.array_equal(cov, cov.T)
    assert np.abs(cov - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize(
    "name, form",
    coupling_form_params(["ieee30", "two_tile30", "central30", "six2", "twelve3", "ieee30_one_region"]),
)
def test_covariance_bound_matches_the_dense_reference(request, name, form):
    _assert_matches_the_dense_reference(_covariance_inputs(request, name), form)


def test_csr_and_dense_jacobians_give_the_same_covariance_bits(part30, mset30, aladin30):
    """The models' CSR Jacobians go to covariance_bound as they are, as
    analyze passes them, and give the covariance of their dense copies."""
    zs, sets = aladin30.zs, measurements.split_by_region(mset30, part30)
    fit = [measurements.RegionResidual(r.case, s).jacobian(z) for r, s, z in zip(part30.regions, sets, zs)]
    cons = [grid.PowerFlowModel(r.case).jacobian(z) for r, z in zip(part30.regions, zs)]
    assert all(a.format == "csr" for a in fit + cons)
    sparse = posterior.covariance_bound(fit, cons, list(part30.coupling))
    dense = posterior.covariance_bound([a.toarray() for a in fit], [a.toarray() for a in cons], list(part30.coupling))
    assert sparse.tobytes() == dense.tobytes()
    assert posterior.analyze(part30, mset30, zs).covariance.tobytes() == dense.tobytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_covariance_bound_matches_the_dense_reference_on_random_partitions(case30, truth30, n_regions, seed):
    part = partition.partition_grid(case30, random_connected_assignment(case30, n_regions, seed))
    mset = measurements.simulate_measurements(
        case30, truth30, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part)
    )
    _assert_matches_the_dense_reference(_region_jacobians(part, mset, partition.extend_state(part, truth30)))


@pytest.fixture(scope="module")
def tiles8():
    """covariance_bound arguments on 8 ieee30 tiles at the extended power-flow truth."""
    case = tiling.tiled_case(8)
    part = partition.partition_grid(case, tiling.tile_assignment(case))
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part)
    )
    return _region_jacobians(part, mset, partition.extend_state(part, truth))


def test_covariance_bound_allocates_little_beside_its_result(tiles8):
    # The only n x n array is the result; everything else it holds is
    # sized by the boundary or by one region.  On two tiles the interior
    # transients dominate the peak, so the bound needs a larger grid.
    tracemalloc.start()
    try:
        result = posterior.covariance_bound(*tiles8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * result.nbytes


@pytest.mark.parametrize("name", ["ieee30", "central30"])
def test_zero_fit_jacobians_make_the_bound_singular(request, name):
    fit, *rest = _covariance_inputs(request, name)
    with pytest.raises(SingularBordered):
        posterior.covariance_bound([np.zeros_like(f) for f in fit], *rest)


def test_covariance_bound_with_no_regions_is_a_dimension_mismatch():
    for couplings in ([], [scipy.sparse.csr_array((0, 4))]):
        with pytest.raises(DimensionMismatch, match="no regions"):
            posterior.covariance_bound([], [], couplings)


@pytest.mark.parametrize("name", ["ieee30", "tiles8", "ieee30_one_region"])
def test_the_boundary_system_has_two_rows_per_coupling_row(request, monkeypatch, name):
    """The copies of a coupled state share one unknown and each boundary
    power-flow row has one: no multiplier rows border the system."""
    args = request.getfixturevalue("tiles8") if name == "tiles8" else _covariance_inputs(request, name)
    shapes = []
    original = linalg.solve_linear

    def recording(matrix, rhs):
        shapes.append(matrix.shape)
        return original(matrix, rhs)

    monkeypatch.setattr(linalg, "solve_linear", recording)
    posterior.covariance_bound(*args)
    n_coupling = args[2][0].shape[0]
    # One interior solve per region, then the boundary system.
    assert len(shapes) == len(args[0]) + 1
    assert shapes[-1] == (2 * n_coupling, 2 * n_coupling)


def _moved_coupling_entry(couplings, region, row, to_row):
    """Dense couplings with one more, empty row, where region's entry in
    row moves to to_row."""
    dense = [np.vstack([a.toarray(), np.zeros((1, a.shape[1]))]) for a in couplings]
    col = np.flatnonzero(dense[region][row])[0]
    dense[region][[row, to_row], col] = 0.0, dense[region][row, col]
    return dense


def test_a_coupling_row_must_join_exactly_two_copies(request):
    fit, cons, couplings = _covariance_inputs(request, "ieee30")
    n_coupling = couplings[0].shape[0]
    claimants = [i for i, a in enumerate(couplings) if a[[0]].nnz]
    other = next(i for i in range(len(couplings)) if i not in claimants)
    # Row 0 keeps one copy (the other moves to the new row), or gains a third.
    for region, row, to_row in ((claimants[0], 0, n_coupling), (other, couplings[other].nonzero()[0][0], 0)):
        moved = _moved_coupling_entry(couplings, region, row, to_row)
        with pytest.raises(DimensionMismatch, match="coupling"):
            posterior.covariance_bound(fit, cons, moved)
    # Both copies of row 0 in one region: its two claimants merged, the
    # second one's buses after the first one's.
    a, b = claimants
    rest = [i for i in range(len(fit)) if i not in claimants]
    merged = (
        [scipy.linalg.block_diag(fit[a], fit[b])] + [fit[i] for i in rest],
        [scipy.linalg.block_diag(cons[a], cons[b])] + [cons[i] for i in rest],
        [scipy.sparse.hstack([couplings[a], couplings[b]], format="csr")] + [couplings[i] for i in rest],
    )
    with pytest.raises(DimensionMismatch, match="coupling"):
        posterior.covariance_bound(*merged)


@pytest.mark.parametrize("cut", [
    pytest.param(lambda zs: zs[:3], id="one-state-short"),
    pytest.param(lambda zs: [z[:-4] for z in zs], id="entries-short"),
])
def test_analyze_rejects_states_that_do_not_fit_the_partition(part30, mset30, aladin30, cut):
    with pytest.raises(DimensionMismatch):
        posterior.analyze(part30, mset30, cut(aladin30.zs))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("central_bound", [False, True], ids=["analyze", "analyze_central"])
def test_non_finite_states_fail_before_any_evaluation(monkeypatch, case30, part30, mset30, aladin30, central30,
                                                       bad, central_bound):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached an evaluation with a non-finite state")

    monkeypatch.setattr(posterior, "covariance_bound", unreachable)
    monkeypatch.setattr(measurements.RegionResidual, "jacobian", unreachable)
    with pytest.raises(ValidationError, match="non-finite"):
        if central_bound:
            x = central30.x.copy()
            x[5] = bad
            posterior.analyze_central(case30, mset30, x)
        else:
            zs = [z.copy() for z in aladin30.zs]
            zs[2][7] = bad
            posterior.analyze(part30, mset30, zs)


def test_analyze_calls_covariance_bound_through_the_module(monkeypatch, case30, part30, mset30, aladin30, central30):
    """Tracing wraps posterior.covariance_bound and reads its positional arguments."""
    calls = []
    original = posterior.covariance_bound

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(posterior, "covariance_bound", recording)
    posterior.analyze(part30, mset30, aladin30.zs)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert len(args) == 3 and kwargs == {}
    posterior.analyze_central(case30, mset30, central30.x)
    assert len(calls) == 2
    args, kwargs = calls[1]
    assert len(args) == 3 and kwargs == {}
