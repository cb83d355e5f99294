from __future__ import annotations

import numpy as np
import pytest

from gridest import grid, powerflow
from gridest.errors import Diverged, SingularJacobian, ValidationError

from conftest import dense_admittance, dense_injections, line_losses


def test_thirty_bus_solution_quality(case30):
    sol = powerflow.solve_power_flow(case30)
    assert sol.iterations <= 10
    assert sol.mismatch <= 1e-10
    assert np.abs(grid.PowerFlowModel(case30).eval(sol.state)).max() <= 1e-10


def test_thirty_bus_energy_balance(case30, truth30):
    # Net active injection of the whole network is exactly what the lines burn.
    _, _, p, _ = grid.unpack_state(truth30)
    assert abs(p.sum() - line_losses(case30, truth30)) <= 1e-8


def test_bus_kind_contract(case30, truth30):
    theta, v, p, q = grid.unpack_state(truth30)
    for bus in case30.buses:
        i = case30.index[bus.id]
        if bus.kind == "slack":
            assert theta[i] == 0.0
            assert v[i] == pytest.approx(bus.v_setpoint, abs=1e-14)
        elif bus.kind == "pv":
            assert v[i] == pytest.approx(bus.v_setpoint, abs=1e-14)
            assert p[i] == pytest.approx(bus.p_injection, abs=1e-10)
        else:
            assert p[i] == pytest.approx(bus.p_injection, abs=1e-10)
            assert q[i] == pytest.approx(bus.q_injection, abs=1e-10)


def test_two_bus_inverse_oracle():
    # Choose the answer first, compute the loads it implies, then demand
    # that the solver reproduce the chosen answer.
    theta2, v2 = -0.07, 0.96
    line = grid.Line(1, 2, 0.02, 0.1)
    probe = grid.GridCase(
        "probe", 100.0, (grid.Bus(1, "slack"), grid.Bus(2)), (line,)
    )
    chosen = np.array([0.0, 1.0, 0.0, 0.0, theta2, v2, 0.0, 0.0])
    s2 = grid.PowerFlowModel(probe).injections(chosen)[probe.index[2]]
    case = grid.GridCase(
        name="two", base_mva=100.0,
        buses=(
            grid.Bus(1, "slack", v_setpoint=1.0),
            grid.Bus(2, "pq", p_load=-s2.real, q_load=-s2.imag),
        ),
        lines=(line,),
    )
    sol = powerflow.solve_power_flow(case)
    i = case.index[2]
    assert sol.state[4 * i + grid.THETA] == pytest.approx(theta2, abs=1e-10)
    assert sol.state[4 * i + grid.V] == pytest.approx(v2, abs=1e-10)


def test_six_bus_converges_fast(case6):
    sol = powerflow.solve_power_flow(case6)
    assert sol.iterations <= 6
    assert sol.mismatch <= 1e-10


def test_slack_count_is_enforced():
    buses = (grid.Bus(1, "pq"), grid.Bus(2, "pq"))
    case = grid.GridCase("t", 100.0, buses, (grid.Line(1, 2, 0.1, 0.2),))
    with pytest.raises(ValidationError):
        powerflow.solve_power_flow(case)
    two_slack = grid.GridCase(
        "t", 100.0,
        (grid.Bus(1, "slack"), grid.Bus(2, "slack")),
        (grid.Line(1, 2, 0.1, 0.2),),
    )
    with pytest.raises(ValidationError):
        powerflow.solve_power_flow(two_slack)


def test_infeasible_load_diverges():
    # A hundred per-unit of load over a weak line has no solution.
    case = grid.GridCase(
        "t", 100.0,
        (grid.Bus(1, "slack"), grid.Bus(2, "pq", p_load=100.0)),
        (grid.Line(1, 2, 0.02, 0.1),),
    )
    with pytest.raises(Diverged):
        powerflow.solve_power_flow(case)


def test_isolated_bus_makes_the_newton_matrix_singular():
    # Bus 3 has no line, so its rows and columns of the Newton matrix are empty.
    case = grid.GridCase(
        "t", 100.0,
        (grid.Bus(1, "slack"), grid.Bus(2, "pq", p_load=0.1), grid.Bus(3, "pq", p_load=0.1)),
        (grid.Line(1, 2, 0.02, 0.1),),
    )
    with pytest.raises(SingularJacobian):
        powerflow.solve_power_flow(case)


def _dense_newton(case, tol=1e-10, max_iter=30):
    """Reference: the same Newton iteration on the dense Jacobian, dense LU,
    with the mismatch and injections from the dense admittance matrix."""
    g, b = dense_admittance(case)
    model = grid.PowerFlowModel(case)
    kinds = np.array([bus.kind for bus in case.buses])
    non_slack, pq = np.flatnonzero(kinds != "slack"), np.flatnonzero(kinds == "pq")
    rows = np.concatenate([2 * non_slack, 2 * pq + 1])
    cols = np.concatenate([4 * non_slack + grid.THETA, 4 * pq + grid.V])
    x = grid.pack_state(
        np.zeros(case.n_bus),
        np.array([bus.v_setpoint if bus.kind != "pq" else 1.0 for bus in case.buses]),
        np.array([bus.p_injection for bus in case.buses]),
        np.array([bus.q_injection for bus in case.buses]),
    )
    for _ in range(max_iter):
        s = dense_injections(g, b, x)
        mis = np.empty(2 * case.n_bus)
        mis[0::2], mis[1::2] = x[grid.P :: 4] - s.real, x[grid.Q :: 4] - s.imag
        mis = mis[rows]
        if np.abs(mis).max() <= tol:
            x[grid.P :: 4], x[grid.Q :: 4] = s.real, s.imag
            return x
        x[cols] -= np.linalg.solve(model.jacobian(x).toarray()[np.ix_(rows, cols)], mis)
    raise AssertionError("dense reference did not converge")


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_sparse_newton_matches_the_dense_reference(request, name):
    case = request.getfixturevalue("case30") if name == "ieee30" else request.getfixturevalue(name)[0].case
    state = powerflow.solve_power_flow(case).state
    assert np.abs(state - _dense_newton(case)).max() <= 1e-12
