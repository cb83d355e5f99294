from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import grid
from gridest.errors import (
    DuplicateLine,
    UnknownBusReference,
    ValidationError,
    ZeroVoltage,
)

from conftest import dense_admittance, fd_jacobian, line_losses, random_states


def _two_bus() -> grid.GridCase:
    return grid.GridCase(
        name="two",
        base_mva=100.0,
        buses=(grid.Bus(1, "slack"), grid.Bus(2, "pq", p_load=0.4, q_load=0.1)),
        lines=(grid.Line(1, 2, 0.02, 0.1),),
    )


# ---------------------------------------------------------------------------
# data model

def test_bus_validation():
    with pytest.raises(ValidationError):
        grid.Bus(1, kind="generator")
    with pytest.raises(ValidationError):
        grid.Bus(1, v_setpoint=0.0)
    assert grid.Bus(1, p_gen=0.5, p_load=0.2).p_injection == pytest.approx(0.3)


def test_line_validation():
    with pytest.raises(ValidationError):
        grid.Line(1, 1, 0.0, 0.1)
    with pytest.raises(ValidationError):
        grid.Line(1, 2, 0.0, 0.0)
    assert grid.Line(2, 1, 0.1, 0.2).key() == (1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_data_model_rejects_non_finite_numbers(bad):
    for field in ("p_load", "q_load", "p_gen", "q_gen", "v_setpoint"):
        with pytest.raises(ValidationError, match="bus 4: .* must be finite"):
            grid.Bus(4, **{field: bad})
    for r, x in ((bad, 0.1), (0.02, bad)):
        with pytest.raises(ValidationError, match="line 1-2: r and x must be finite"):
            grid.Line(1, 2, r, x)
    with pytest.raises(ValidationError, match="case t: base MVA"):
        grid.GridCase("t", bad, (grid.Bus(1, "slack"),), ())


def test_zero_resistance_line_admittance():
    line = grid.Line(1, 2, 0.0, 0.2)
    assert line.g == pytest.approx(0.0)
    assert line.b == pytest.approx(-5.0)


def test_case_sorts_buses_and_rejects_bad_topology():
    case = grid.GridCase(
        name="t", base_mva=100.0,
        buses=(grid.Bus(3), grid.Bus(1, "slack"), grid.Bus(2)),
        lines=(grid.Line(1, 2, 0.1, 0.2), grid.Line(2, 3, 0.1, 0.2)),
    )
    assert case.bus_ids == (1, 2, 3)
    assert case.index == {1: 0, 2: 1, 3: 2}
    with pytest.raises(DuplicateLine):
        grid.GridCase("t", 100.0, case.buses, (grid.Line(1, 2, 0.1, 0.2), grid.Line(2, 1, 0.3, 0.4)))
    with pytest.raises(UnknownBusReference):
        grid.GridCase("t", 100.0, case.buses, (grid.Line(1, 9, 0.1, 0.2),))
    with pytest.raises(ValidationError):
        grid.GridCase("t", 100.0, (grid.Bus(1), grid.Bus(1)), ())


def test_state_packing_roundtrip():
    rng = np.random.default_rng(3)
    theta, v, p, q = (rng.standard_normal(5) for _ in range(4))
    x = grid.pack_state(theta, v, p, q)
    assert x.shape == (4 * 5,)
    t2, v2, p2, q2 = grid.unpack_state(x)
    assert np.array_equal(t2, theta) and np.array_equal(v2, v)
    assert np.array_equal(p2, p) and np.array_equal(q2, q)


def test_flat_state_is_the_zero_residual_point_of_an_unloaded_grid():
    case = _two_bus()
    x = grid.flat_state(case.n_bus)
    assert np.abs(grid.PowerFlowModel(case).eval(x)).max() <= 1e-15


# ---------------------------------------------------------------------------
# admittance

def test_admittance_row_sums_vanish(case30):
    # No shunts: every row of G and B sums to zero exactly up to rounding.
    y = grid.PowerFlowModel(case30).admittance.toarray()
    g, b = y.real, y.imag
    assert np.abs(g.sum(axis=1)).max() <= 1e-12
    assert np.abs(b.sum(axis=1)).max() <= 1e-12
    assert np.abs(g - g.T).max() == 0.0
    assert np.abs(b - b.T).max() == 0.0


def test_admittance_off_diagonals_are_negated_line_admittances(case30):
    y = grid.PowerFlowModel(case30).admittance.toarray()
    g, b = y.real, y.imag
    for line in case30.lines:
        k = case30.index[line.from_bus]
        l = case30.index[line.to_bus]
        assert g[k, l] == pytest.approx(-line.g, abs=1e-15)
        assert b[k, l] == pytest.approx(-line.b, abs=1e-15)


# ---------------------------------------------------------------------------
# power flow equations

def _injection_by_trig_loop(case, x):
    """Textbook double loop over G cos + B sin, independent of the
    vectorized complex-arithmetic route used by the package."""
    g, b = dense_admittance(case)
    theta, v, _, _ = grid.unpack_state(x)
    n = case.n_bus
    p = np.zeros(n)
    q = np.zeros(n)
    for k in range(n):
        for l in range(n):
            dth = theta[k] - theta[l]
            p[k] += v[k] * v[l] * (g[k, l] * np.cos(dth) + b[k, l] * np.sin(dth))
            q[k] += v[k] * v[l] * (g[k, l] * np.sin(dth) - b[k, l] * np.cos(dth))
    return p, q


def test_residual_matches_scalar_trig_reference(case6, two_tile30, part30):
    for case in [case6, two_tile30[0].case] + [region.case for region in part30.regions]:
        model = grid.PowerFlowModel(case)
        for x in random_states(case.n_bus, 5, seed=11):
            res = model.eval(x)
            p_ref, q_ref = _injection_by_trig_loop(case, x)
            _, _, p, q = grid.unpack_state(x)
            assert np.abs(res[0::2] - (p - p_ref)).max() <= 1e-12
            assert np.abs(res[1::2] - (q - q_ref)).max() <= 1e-12


def test_admittance_equals_the_per_line_dense_reference(case30, two_tile30, part30):
    for case in [case30, two_tile30[0].case] + [region.case for region in part30.regions]:
        g, b = dense_admittance(case)
        assert np.array_equal(grid.PowerFlowModel(case).admittance.toarray(), g + 1j * b)


def test_equal_voltages_give_exactly_zero_injections(case30, two_tile30):
    # Rows of Y sum to zero, and the currents are summed as Y_kl (V_l - V_k),
    # so equal voltages leave no rounding residue (a row sum of the stored
    # Y is only zero to rounding).
    rng = np.random.default_rng(4)
    for case in (case30, two_tile30[0].case):
        n = case.n_bus
        x = grid.pack_state(np.full(n, rng.uniform(-0.3, 0.3)), np.full(n, rng.uniform(0.9, 1.1)),
                            np.zeros(n), np.zeros(n))
        assert np.all(grid.PowerFlowModel(case).injections(x) == 0.0)


def test_isolated_bus_keeps_a_zero_diagonal_and_finite_physics():
    # Bus 3 has no line: its diagonal entry is zero but stays on the pattern.
    case = grid.GridCase(
        name="iso", base_mva=100.0,
        buses=(grid.Bus(1, "slack"), grid.Bus(2), grid.Bus(3)),
        lines=(grid.Line(1, 2, 0.02, 0.1),),
    )
    model = grid.PowerFlowModel(case)
    y = model.admittance
    assert y.nnz == 5 and y[2, 2] == 0.0
    for x in random_states(3, 3, seed=9):
        res = model.eval(x)
        assert np.all(np.isfinite(res))
        assert res[4] == x[4 * 2 + grid.P] and res[5] == x[4 * 2 + grid.Q]
        jac = model.jacobian(x)
        fd = fd_jacobian(model.eval, x)
        assert np.abs(jac - fd).max() / (1.0 + np.abs(jac).max()) <= 1e-6
        # Four blocks on the 5 entries of Y's pattern, zero diagonal
        # included, and one unit entry per p and q.
        assert jac.format == "csr" and jac.nnz == 4 * 5 + 2 * 3


def test_power_flow_jacobian_matches_finite_differences(case30):
    model = grid.PowerFlowModel(case30)
    for x in random_states(case30.n_bus, 3, seed=5):
        jac = model.jacobian(x)
        fd = fd_jacobian(model.eval, x)
        scale = 1.0 + np.abs(jac).max()
        assert np.abs(jac - fd).max() / scale <= 1e-6


def test_power_flow_jacobian_with_zero_resistance_line():
    # A pure-reactance branch exercises the g = 0 paths.
    case = grid.GridCase(
        name="x", base_mva=100.0,
        buses=(grid.Bus(1, "slack"), grid.Bus(2), grid.Bus(3)),
        lines=(grid.Line(1, 2, 0.0, 0.2), grid.Line(2, 3, 0.05, 0.1)),
    )
    model = grid.PowerFlowModel(case)
    for x in random_states(3, 3, seed=7):
        jac = model.jacobian(x)
        fd = fd_jacobian(model.eval, x)
        assert np.abs(jac - fd).max() / (1.0 + np.abs(jac).max()) <= 1e-6


def test_flat_point_angle_block_equals_susceptance(case30):
    # At theta = 0, v = 1 the conductance terms cancel exactly and the
    # angle sensitivity of the active rows reduces to B itself.
    _, b = dense_admittance(case30)
    jac = grid.PowerFlowModel(case30).jacobian(grid.flat_state(case30.n_bus))
    dp_dtheta = jac[0::2, 0::4]
    assert np.abs(dp_dtheta - b).max() <= 1e-12 * (1.0 + np.abs(b).max())


def test_model_wrapper_shapes(case30):
    model = grid.PowerFlowModel(case30)
    x = grid.flat_state(case30.n_bus)
    assert model.n_constraints == 2 * case30.n_bus
    assert model.n_states == 4 * case30.n_bus
    assert model.eval(x).shape == (2 * case30.n_bus,)
    assert model.jacobian(x).shape == (2 * case30.n_bus, 4 * case30.n_bus)


def _dense_injection_jacobians(g, b, x):
    """Reference: dS/dtheta and dS/dv of S = V conj(Y V) as dense matrix products."""
    vc = grid.complex_voltage(x)
    y = g + 1j * b
    diag_v = np.diag(vc)
    diag_i = np.diag(y @ vc)
    diag_vnorm = np.diag(vc / x[grid.V :: 4])
    ds_dva = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
    ds_dvm = diag_v @ np.conj(y @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    return ds_dva, ds_dvm


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_model_jacobian_matches_the_dense_matrix_formulas(request, name):
    """The pattern-wise Jacobian equals the dense matrix-product formulas to
    rounding."""
    case = request.getfixturevalue("case30") if name == "ieee30" else request.getfixturevalue(name)[0].case
    model = grid.PowerFlowModel(case)
    g, b = dense_admittance(case)
    n = case.n_bus
    for x in list(random_states(n, 2, seed=3)) + [grid.flat_state(n)]:
        jac = model.jacobian(x).toarray()
        ds_dva, ds_dvm = _dense_injection_jacobians(g, b, x)
        ref = np.zeros((2 * n, 4 * n))
        ref[0::2, 0::4], ref[0::2, 1::4] = -ds_dva.real, -ds_dvm.real
        ref[1::2, 0::4], ref[1::2, 1::4] = -ds_dva.imag, -ds_dvm.imag
        ref[2 * np.arange(n), 4 * np.arange(n) + grid.P] = 1.0
        ref[2 * np.arange(n) + 1, 4 * np.arange(n) + grid.Q] = 1.0
        assert np.abs(jac - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# line measurement functions

def _random_pair(seed):
    rng = np.random.default_rng(seed)
    x_k = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.1), 0.0, 0.0])
    x_l = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.1), 0.0, 0.0])
    g = rng.uniform(0.5, 8.0)
    b = -rng.uniform(0.5, 25.0)
    return x_k, x_l, g, b


def _one_line(x_k, x_l, g, b):
    """The arguments of grid.line_flows for one line from node state x_k to x_l."""
    return np.concatenate([x_k, x_l]), np.array([0]), np.array([1]), np.array([g]), np.array([b])


def _flow(x_k, x_l, g, b):
    return grid.line_flows(*_one_line(x_k, x_l, g, b))[0]


def _flow_jacobian(x_k, x_l, g, b):
    """Jacobian of _flow w.r.t. the stacked (x_k, x_l), shape (3, 8)."""
    jac = np.zeros((3, 8))
    jac[:, [grid.THETA, grid.V, 4 + grid.THETA, 4 + grid.V]] = grid.line_flow_derivatives(*_one_line(x_k, x_l, g, b))[0]
    return jac


def test_line_flow_zero_at_equal_voltages():
    x = np.array([0.1, 1.02, 0.0, 0.0])
    assert np.abs(_flow(x, x, 3.0, -9.0)).max() <= 1e-15


def test_line_flow_rejects_zero_voltage():
    x_k = np.array([0.0, 0.0, 0.0, 0.0])
    x_l = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ZeroVoltage):
        grid.line_flows(*_one_line(x_k, x_l, 1.0, -3.0))
    with pytest.raises(ZeroVoltage):
        grid.line_flow_derivatives(*_one_line(x_k, x_l, 1.0, -3.0))
    # Four nodes with v = (0, 1, -0.5, 1); the lines from nodes 0 and 2 are
    # rejected, and the error names their v_k entries 4 pos + V in line order.
    x = np.zeros(16)
    x[grid.V::4] = [0.0, 1.0, -0.5, 1.0]
    k, l = np.array([1, 0, 3, 2]), np.array([0, 1, 2, 3])
    g, b = np.ones(4), np.full(4, -3.0)
    for function in (grid.line_flows, grid.line_flow_derivatives):
        with pytest.raises(ZeroVoltage) as info:
            function(x, k, l, g, b)
        assert list(info.value.columns) == [4 * 0 + grid.V, 4 * 2 + grid.V]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_line_flow_direction_sum_is_the_series_loss(seed):
    """f_p(k,l) + f_p(l,k) equals g |V_k - V_l|^2 >= 0: the active flows
    of the two directions differ exactly by what the line burns."""
    x_k, x_l, g, b = _random_pair(seed)
    fkl = _flow(x_k, x_l, g, b)
    flk = _flow(x_l, x_k, g, b)
    vk = x_k[grid.V] * np.exp(1j * x_k[grid.THETA])
    vl = x_l[grid.V] * np.exp(1j * x_l[grid.THETA])
    loss = g * abs(vk - vl) ** 2
    assert fkl[0] + flk[0] == pytest.approx(loss, abs=1e-12)
    assert fkl[0] + flk[0] >= -1e-12
    assert fkl[2] >= 0.0 and flk[2] >= 0.0


def test_line_flow_matches_independent_expansion():
    # f_p is the complex sending-end active power Re(V_k conj((V_k-V_l) y));
    # f_q and f_i are pinned against a literal re-expansion of their
    # defining trigonometric forms, evaluated through a separate code path.
    for seed in range(5):
        x_k, x_l, g, b = _random_pair(seed)
        vk_c = x_k[grid.V] * np.exp(1j * x_k[grid.THETA])
        vl_c = x_l[grid.V] * np.exp(1j * x_l[grid.THETA])
        s = vk_c * np.conj((vk_c - vl_c) * complex(g, b))
        th = x_k[grid.THETA] - x_l[grid.THETA]
        vk, vl = x_k[grid.V], x_l[grid.V]
        f_q_ref = -vk * vk * b + vk * vl * (b * np.cos(th) + g * np.sin(th))
        f = _flow(x_k, x_l, g, b)
        assert f[0] == pytest.approx(s.real, abs=1e-12)
        assert f[1] == pytest.approx(f_q_ref, abs=1e-12)
        assert f[2] == pytest.approx((s.real**2 + f_q_ref**2) / (vk * vk), abs=1e-12)


def test_line_flow_jacobian_matches_finite_differences():
    for seed in range(8):
        x_k, x_l, g, b = _random_pair(seed)
        jac = _flow_jacobian(x_k, x_l, g, b)
        stacked = np.concatenate([x_k, x_l])
        fd = fd_jacobian(
            lambda y: _flow(y[:4], y[4:], g, b), stacked
        )
        assert np.abs(jac - fd).max() / (1.0 + np.abs(jac).max()) <= 1e-6
        assert np.abs(fd[:, [2, 3, 6, 7]]).max() == 0.0


def test_line_losses_equal_flow_direction_sums(case6, truth6):
    ends = [(line.from_bus, line.to_bus) for line in case6.lines]
    k, l, g, b = grid.line_arrays(case6, ends)
    total = (grid.line_flows(truth6, k, l, g, b)[:, 0] + grid.line_flows(truth6, l, k, g, b)[:, 0]).sum()
    assert line_losses(case6, truth6) == pytest.approx(total, abs=1e-12)


def test_line_arrays_follow_the_given_direction_and_reject_unknown_pairs(case6):
    line = case6.lines[0]
    k, l, g, b = grid.line_arrays(case6, [(line.to_bus, line.from_bus), (line.from_bus, line.to_bus)])
    assert list(k) == [case6.index[line.to_bus], case6.index[line.from_bus]]
    assert list(l) == [case6.index[line.from_bus], case6.index[line.to_bus]]
    assert list(g) == [line.g, line.g] and list(b) == [line.b, line.b]
    with pytest.raises(UnknownBusReference):
        grid.line_arrays(case6, [(line.from_bus, 99)])
