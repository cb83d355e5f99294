from __future__ import annotations

import numpy as np
import pytest

from gridest import grid, measurements, partition, powerflow
from gridest.errors import DimensionMismatch, UnknownBusReference, ValidationError, ZeroVoltage

from conftest import fd_jacobian, line_flow, line_flow_jacobian, random_states, reference_measurements


def test_same_seed_same_realization(case30, truth30):
    a = measurements.simulate_measurements(case30, truth30, rng=123)
    b = measurements.simulate_measurements(case30, truth30, rng=123)
    assert np.array_equal(a.node_values, b.node_values)
    assert np.array_equal(a.line_values, b.line_values)
    c = measurements.simulate_measurements(case30, truth30, rng=124)
    assert not np.array_equal(a.node_values, c.node_values)


def test_none_noise_returns_exact_values(case30, truth30):
    mset = measurements.simulate_measurements(case30, truth30, noise=None, rng=5)
    for i, bus_id in enumerate(mset.node_ids):
        k = 4 * case30.index[bus_id]
        assert np.array_equal(mset.node_values[i], truth30[k : k + 4])
    by_key = {line.key(): line for line in case30.lines}
    for (k, l), row in zip(mset.line_ends, mset.line_values):
        line = by_key[(min(k, l), max(k, l))]
        x_k = truth30[4 * case30.index[k] : 4 * case30.index[k] + 4]
        x_l = truth30[4 * case30.index[l] : 4 * case30.index[l] + 4]
        assert np.array_equal(row, line_flow(x_k, x_l, line.g, line.b))


@pytest.mark.parametrize("name", ["ieee30", "ieee30_internal", "two_tile30"])
def test_simulation_equals_the_per_node_per_line_reference(request, name):
    """Byte for byte, including the order in which the noise is drawn."""
    if name == "two_tile30":
        part, _ = request.getfixturevalue("two_tile30")
        case, truth = part.case, powerflow.solve_power_flow(part.case).state
        lines = partition.internal_line_keys(part)
    else:
        case, truth = request.getfixturevalue("case30"), request.getfixturevalue("truth30")
        lines = partition.internal_line_keys(request.getfixturevalue("part30")) if name == "ieee30_internal" else None
    for seed in range(3):
        got = measurements.simulate_measurements(case, truth, rng=seed, measured_lines=lines)
        ref = reference_measurements(case, truth, seed, measured_lines=lines)
        assert got.node_ids == ref.node_ids and got.line_ends == ref.line_ends
        for field in ("node_values", "node_weights", "line_values", "line_weights"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field


def test_noise_scales_with_the_configured_variances(case30, truth30):
    """Standardized deviations over many realizations have unit variance."""
    noise = measurements.NoiseConfig()
    reps = 400
    rng = np.random.default_rng(2024)
    pulls = []
    for _ in range(reps):
        mset = measurements.simulate_measurements(case30, truth30, noise=noise, rng=rng)
        for i, bus_id in enumerate(mset.node_ids):
            k = 4 * case30.index[bus_id]
            true4 = truth30[k : k + 4]
            pulls.append((mset.node_values[i] - true4) / noise.node_std(true4))
    z = np.concatenate(pulls)
    assert abs(z.mean()) <= 4.0 / np.sqrt(z.size)
    assert 0.97 <= z.std() <= 1.03


def test_noise_floor_guards_small_channels():
    noise = measurements.NoiseConfig()
    tiny = np.array([0.0, 1.0, 1e-6, -1e-6])
    std = noise.node_std(tiny)
    assert std[0] == pytest.approx(np.sqrt(noise.rel_var_theta) * noise.floor)
    assert std[2] == pytest.approx(np.sqrt(noise.rel_var_p) * noise.floor)


def test_default_weights():
    assert np.array_equal(measurements.default_node_weights(), [1e4, 1e5, 1e4, 1e4])
    assert np.array_equal(measurements.default_line_weights(), [1e4, 1e4, 1e4])


def test_measured_lines_can_be_restricted(case30, part30, truth30):
    keys = partition.internal_line_keys(part30)
    mset = measurements.simulate_measurements(case30, truth30, rng=1, measured_lines=keys)
    assert len(mset.line_ends) == len(keys)
    assert len(mset.node_ids) == case30.n_bus
    with pytest.raises(UnknownBusReference):
        measurements.simulate_measurements(case30, truth30, rng=1, measured_lines=[(1, 30)])


def test_truth_length_is_checked(case30):
    with pytest.raises(DimensionMismatch):
        measurements.simulate_measurements(case30, np.zeros(7), rng=0)


def test_truth_may_be_a_list(case30, truth30):
    listed = measurements.simulate_measurements(case30, list(truth30), rng=3)
    array = measurements.simulate_measurements(case30, truth30, rng=3)
    for field in ("node_values", "node_weights", "line_values", "line_weights"):
        assert getattr(listed, field).tobytes() == getattr(array, field).tobytes()
    assert (listed.node_ids, listed.line_ends) == (array.node_ids, array.line_ends)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_truth_fails_before_any_evaluation(monkeypatch, case30, truth30, bad):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached an evaluation with a non-finite truth")

    monkeypatch.setattr(grid, "line_flows", unreachable)
    truth = truth30.copy()
    truth[9] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        measurements.simulate_measurements(case30, truth, rng=0)


def test_measurement_set_validation(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, rng=0)
    assert mset.n_channels == 4 * case6.n_bus + 3 * len(case6.lines)
    with pytest.raises(ValidationError):
        measurements.MeasurementSet(
            node_ids=(1, 1),
            node_values=np.zeros((2, 4)),
            node_weights=np.ones((2, 4)),
            line_ends=(),
            line_values=np.zeros((0, 3)),
            line_weights=np.zeros((0, 3)),
        )
    with pytest.raises(ValidationError):
        measurements.MeasurementSet(
            node_ids=(1,),
            node_values=np.zeros((1, 4)),
            node_weights=-np.ones((1, 4)),
            line_ends=(),
            line_values=np.zeros((0, 3)),
            line_weights=np.zeros((0, 3)),
        )
    with pytest.raises(ValidationError):
        measurements.MeasurementSet(
            node_ids=(1,),
            node_values=np.full((1, 4), np.nan),
            node_weights=np.ones((1, 4)),
            line_ends=(),
            line_values=np.zeros((0, 3)),
            line_weights=np.zeros((0, 3)),
        )


def test_split_by_region_covers_everything_once(case30, part30, truth30, mset30):
    region_sets = measurements.split_by_region(mset30, part30)
    ids = sorted(b for rs in region_sets for b in rs.node_ids)
    assert ids == list(case30.bus_ids)
    lines = sorted(
        (min(k, l), max(k, l)) for rs in region_sets for (k, l) in rs.line_ends
    )
    assert lines == sorted((min(k, l), max(k, l)) for (k, l) in mset30.line_ends)
    for region, rs in zip(part30.regions, region_sets):
        assert set(rs.node_ids) == set(region.original_bus_ids)


def test_split_rejects_cross_region_lines(case30, part30, truth30):
    cut = part30.aux_pairs[0]
    mset = measurements.simulate_measurements(
        case30, truth30, rng=1, measured_lines=[(cut.low_bus, cut.high_bus)]
    )
    with pytest.raises(ValidationError):
        measurements.split_by_region(mset, part30)


def test_region_residual_shape_and_zero_point(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, noise=None, rng=0)
    residual = measurements.RegionResidual(case6, mset)
    assert residual.n_rows == mset.n_channels
    assert residual.n_states == 4 * case6.n_bus
    assert np.abs(residual.eval(truth6)).max() <= 1e-14


def test_region_residual_weighting(case6, truth6):
    # Quadrupling a weight doubles the weighted residual rows.
    mset = measurements.simulate_measurements(case6, truth6, rng=9)
    heavier = measurements.simulate_measurements(
        case6, truth6, rng=9,
        node_weights=4.0 * measurements.default_node_weights(),
        line_weights=4.0 * measurements.default_line_weights(),
    )
    x = truth6 + 0.01
    r1 = measurements.RegionResidual(case6, mset).eval(x)
    r2 = measurements.RegionResidual(case6, heavier).eval(x)
    assert np.allclose(r2, 2.0 * r1, atol=1e-12)


def test_region_residual_jacobian_matches_finite_differences(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, rng=4)
    residual = measurements.RegionResidual(case6, mset)
    rng = np.random.default_rng(10)
    for _ in range(3):
        x = truth6 + 0.05 * rng.standard_normal(truth6.size)
        jac = residual.jacobian(x)
        fd = fd_jacobian(residual.eval, x)
        assert np.abs(jac - fd).max() / (1.0 + np.abs(jac).max()) <= 1e-6


def test_region_residual_fit_is_the_weighted_square_sum(case6, truth6):
    mset = measurements.simulate_measurements(case6, truth6, rng=4)
    residual = measurements.RegionResidual(case6, mset)
    r = residual.eval(truth6)
    direct = 0.0
    for i, bus_id in enumerate(mset.node_ids):
        k = 4 * case6.index[bus_id]
        d = truth6[k : k + 4] - mset.node_values[i]
        direct += float(np.sum(mset.node_weights[i] * d * d))
    by_key = {line.key(): line for line in case6.lines}
    for j, (k, l) in enumerate(mset.line_ends):
        line = by_key[(min(k, l), max(k, l))]
        x_k = truth6[4 * case6.index[k] : 4 * case6.index[k] + 4]
        x_l = truth6[4 * case6.index[l] : 4 * case6.index[l] + 4]
        d = line_flow(x_k, x_l, line.g, line.b) - mset.line_values[j]
        direct += float(np.sum(mset.line_weights[j] * d * d))
    assert float(r @ r) == pytest.approx(direct, rel=1e-12)


def _per_line_reference(residual, z):
    """eval and jacobian of a RegionResidual, one node and one line at a time."""
    case = residual.case
    by_key = {line.key(): line for line in case.lines}
    nn = len(residual.node_ids)
    out = np.empty(residual.n_rows)
    jac = np.zeros((residual.n_rows, residual.n_states))
    for i, pos in enumerate(residual.node_pos):
        out[4 * i : 4 * i + 4] = residual.node_sqrt_w[i] * (z[4 * pos : 4 * pos + 4] - residual.node_values[i])
        jac[4 * i : 4 * i + 4, 4 * pos : 4 * pos + 4] = np.diag(residual.node_sqrt_w[i])
    for j, (k, l) in enumerate(residual.line_ends):
        line = by_key[(min(k, l), max(k, l))]
        pk, pl = case.index[k], case.index[l]
        x_k, x_l = z[4 * pk : 4 * pk + 4], z[4 * pl : 4 * pl + 4]
        w = residual.line_sqrt_w[j]
        row = 4 * nn + 3 * j
        out[row : row + 3] = w * (line_flow(x_k, x_l, line.g, line.b) - residual.line_values[j])
        block = line_flow_jacobian(x_k, x_l, line.g, line.b)
        jac[row : row + 3, 4 * pk : 4 * pk + 4] = w[:, None] * block[:, :4]
        jac[row : row + 3, 4 * pl : 4 * pl + 4] = w[:, None] * block[:, 4:]
    return out, jac


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_region_residual_matches_the_per_line_reference(request, name):
    """Whole case and every region: vectorized eval and jacobian against a
    loop over the scalar line_flow and line_flow_jacobian."""
    if name == "ieee30":
        part, mset = request.getfixturevalue("part30"), request.getfixturevalue("mset30")
    else:
        part, mset = request.getfixturevalue("two_tile30")
    residuals = [measurements.RegionResidual(part.case, mset)] + [
        measurements.RegionResidual(region.case, region_set)
        for region, region_set in zip(part.regions, measurements.split_by_region(mset, part))
    ]
    for seed, residual in enumerate(residuals):
        for z in random_states(residual.case.n_bus, 2, seed=seed):
            ref_out, ref_jac = _per_line_reference(residual, z)
            out, jac = residual.eval(z), residual.jacobian(z).toarray()
            assert np.abs(out - ref_out).max() <= 1e-14 * np.abs(ref_out).max()
            assert np.abs(jac - ref_jac).max() <= 1e-14 * np.abs(ref_jac).max()


def test_region_residual_rejects_zero_voltage_at_a_measured_line_end(case6, truth6):
    residual = measurements.RegionResidual(case6, measurements.simulate_measurements(case6, truth6, rng=4))
    x = truth6.copy()
    x[4 * case6.index[residual.line_ends[0][0]] + grid.V] = 0.0
    with pytest.raises(ZeroVoltage):
        residual.eval(x)
    with pytest.raises(ZeroVoltage):
        residual.jacobian(x)
