"""Shared fixtures: the bundled cases, one default 30-bus scenario and a
two-tile 60-bus scenario.

The expensive objects (power flow truth, the seed-7 measurement set, one
distributed and one centralized solve) are session scoped; tests treat
them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

import tiling
from gridest import aladin, caseio, central, grid, measurements, partition, powerflow

DEFAULT_SEED = 7


@pytest.fixture(scope="session")
def case30():
    return caseio.builtin_case("ieee30")


@pytest.fixture(scope="session")
def case6():
    return caseio.builtin_case("six_bus")


@pytest.fixture(scope="session")
def case12():
    return caseio.builtin_case("twelve_bus")


@pytest.fixture(scope="session")
def part30(case30):
    _, assignment = caseio.builtin_partition_spec("default4")
    return partition.partition_grid(case30, assignment)


@pytest.fixture(scope="session")
def part6(case6):
    _, assignment = caseio.builtin_partition_spec("six2")
    return partition.partition_grid(case6, assignment)


@pytest.fixture(scope="session")
def part12(case12):
    _, assignment = caseio.builtin_partition_spec("twelve3")
    return partition.partition_grid(case12, assignment)


@pytest.fixture(scope="session")
def truth30(case30):
    return powerflow.solve_power_flow(case30).state


@pytest.fixture(scope="session")
def truth6(case6):
    return powerflow.solve_power_flow(case6).state


@pytest.fixture(scope="session")
def truth12(case12):
    return powerflow.solve_power_flow(case12).state


@pytest.fixture(scope="session")
def mset30(case30, part30, truth30):
    """The default scenario: seed 7, sensors on intact lines only."""
    return measurements.simulate_measurements(
        case30, truth30, rng=DEFAULT_SEED,
        measured_lines=partition.internal_line_keys(part30),
    )


@pytest.fixture(scope="session")
def aladin30(part30, mset30, truth30):
    return aladin.run_aladin(part30, mset30, truth=truth30)


@pytest.fixture(scope="session")
def central30(case30, mset30):
    return central.solve_central(case30, mset30)


@pytest.fixture(scope="session")
def two_tile30():
    """Two copies of ieee30 joined by three tie lines, one region per copy:
    the two-tile grid of perfbench/tiling.py.

    Buses of the second copy are numbered 31..60 and its slack bus becomes
    a PV bus.  Returns the partition and the seed-7 measurement set.
    """
    case = tiling.tiled_case(2)
    part = partition.partition_grid(case, tiling.tile_assignment(case))
    truth = powerflow.solve_power_flow(case).state
    mset = measurements.simulate_measurements(
        case, truth, rng=DEFAULT_SEED, measured_lines=partition.internal_line_keys(part)
    )
    return part, mset


def random_connected_assignment(case, n_regions: int, seed: int) -> dict[int, int]:
    """Grow n_regions regions from random seed buses, one adjacent bus at a time."""
    rng = np.random.default_rng(seed)
    neighbours = {b: set() for b in case.bus_ids}
    for line in case.lines:
        neighbours[line.from_bus].add(line.to_bus)
        neighbours[line.to_bus].add(line.from_bus)
    seeds = rng.choice(case.bus_ids, size=n_regions, replace=False)
    assignment = {int(b): r for r, b in enumerate(seeds)}
    while len(assignment) < case.n_bus:
        frontier = sorted(
            (b, r) for a, r in assignment.items() for b in neighbours[a] if b not in assignment
        )
        bus, region = frontier[rng.integers(len(frontier))]
        assignment[bus] = region
    return assignment


def _dense_couplings(couplings):
    return [a.toarray() for a in couplings]


def coupling_form_params(names):
    """(name, form) parameters: every scenario name with form list, which
    passes the run's CSR couplings on (id: the name), and with a form that
    passes their .toarray() (id: name-dense)."""
    return [pytest.param(name, list, id=name) for name in names] + [
        pytest.param(name, _dense_couplings, id=f"{name}-dense") for name in names
    ]


def random_states(n_bus: int, count: int, seed: int) -> np.ndarray:
    """Operating-range random states: v in [0.9, 1.1], theta in [-0.3, 0.3]."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 4 * n_bus))
    out[:, 0::4] = rng.uniform(-0.3, 0.3, (count, n_bus))
    out[:, 1::4] = rng.uniform(0.9, 1.1, (count, n_bus))
    out[:, 2::4] = rng.uniform(-1.0, 1.0, (count, n_bus))
    out[:, 3::4] = rng.uniform(-1.0, 1.0, (count, n_bus))
    return out


def dense_admittance(case) -> tuple[np.ndarray, np.ndarray]:
    """Reference (G, B): the dense bus admittance matrix, accumulated line by line."""
    n = case.n_bus
    g = np.zeros((n, n))
    b = np.zeros((n, n))
    for line in case.lines:
        i = case.index[line.from_bus]
        j = case.index[line.to_bus]
        y = line.admittance
        g[i, j] -= y.real
        g[j, i] -= y.real
        b[i, j] -= y.imag
        b[j, i] -= y.imag
        g[i, i] += y.real
        g[j, j] += y.real
        b[i, i] += y.imag
        b[j, j] += y.imag
    return g, b


def dense_injections(g: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference complex injections S = V conj(Y V) by a dense matrix product."""
    vc = grid.complex_voltage(x)
    return vc * np.conj((g + 1j * b) @ vc)


def line_flow(x_k: np.ndarray, x_l: np.ndarray, g: float, b: float) -> np.ndarray:
    """Reference (f_p, f_q, f_i) of one directed line seen from the k end.

    x_k and x_l are the 4-component node states of the two ends, g and b
    the series admittance parts of the line; scalar formulas.
    """
    th = x_k[grid.THETA] - x_l[grid.THETA]
    vk, vl = x_k[grid.V], x_l[grid.V]
    cos, sin = np.cos(th), np.sin(th)
    f_p = vk * (vk * g - vl * g * cos) - vk * vl * b * sin
    f_q = -vk * (vk * b - vl * b * cos) + vk * vl * g * sin
    return np.array([f_p, f_q, (f_p * f_p + f_q * f_q) / (vk * vk)])


def line_flow_jacobian(x_k: np.ndarray, x_l: np.ndarray, g: float, b: float) -> np.ndarray:
    """Reference Jacobian of line_flow w.r.t. the stacked (x_k, x_l), shape (3, 8)."""
    th = x_k[grid.THETA] - x_l[grid.THETA]
    vk, vl = x_k[grid.V], x_l[grid.V]
    cos, sin = np.cos(th), np.sin(th)
    f_p, f_q, _ = line_flow(x_k, x_l, g, b)
    t, v = grid.THETA, grid.V
    jac = np.zeros((3, 8))
    dfp_dth = vk * vl * (g * sin - b * cos)
    dfq_dth = vk * vl * (g * cos - b * sin)
    jac[0, t] = dfp_dth
    jac[0, 4 + t] = -dfp_dth
    jac[0, v] = 2.0 * vk * g - vl * (g * cos + b * sin)
    jac[0, 4 + v] = -vk * (g * cos + b * sin)
    jac[1, t] = dfq_dth
    jac[1, 4 + t] = -dfq_dth
    jac[1, v] = -2.0 * vk * b + vl * (b * cos + g * sin)
    jac[1, 4 + v] = vk * (b * cos + g * sin)
    # f_i = (f_p^2 + f_q^2) / v_k^2, chain rule plus the explicit v_k term.
    jac[2, :] = (2.0 * f_p * jac[0, :] + 2.0 * f_q * jac[1, :]) * (1.0 / (vk * vk))
    jac[2, v] -= 2.0 * (f_p * f_p + f_q * f_q) / (vk * vk * vk)
    return jac


def line_losses(case, x: np.ndarray) -> float:
    """Reference total series active power loss sum_l g_l |V_k - V_l|^2, line by line."""
    vc = grid.complex_voltage(x)
    total = 0.0
    for line in case.lines:
        dv = vc[case.index[line.from_bus]] - vc[case.index[line.to_bus]]
        total += line.g * (dv.real * dv.real + dv.imag * dv.imag)
    return total


def reference_measurements(case, truth: np.ndarray, seed: int, measured_lines=None):
    """Reference simulate_measurements with default noise and weights.

    Draws 4 normals per node in id order, then 3 per measured line, one
    node or line at a time; measured_lines are endpoint pairs, each line
    seen from the from_bus end of the case's line.
    """
    noise = measurements.NoiseConfig()
    rng = np.random.default_rng(seed)
    by_key = {line.key(): line for line in case.lines}
    lines = case.lines if measured_lines is None else [by_key[(min(e), max(e))] for e in measured_lines]
    node_values = np.empty((case.n_bus, 4))
    for i, bus_id in enumerate(case.bus_ids):
        true4 = truth[4 * case.index[bus_id] : 4 * case.index[bus_id] + 4]
        node_values[i] = true4 + rng.standard_normal(4) * noise.node_std(true4)
    line_values = np.empty((len(lines), 3))
    for j, line in enumerate(lines):
        x_k = truth[4 * case.index[line.from_bus] : 4 * case.index[line.from_bus] + 4]
        x_l = truth[4 * case.index[line.to_bus] : 4 * case.index[line.to_bus] + 4]
        true3 = line_flow(x_k, x_l, line.g, line.b)
        line_values[j] = true3 + rng.standard_normal(3) * noise.line_std(true3)
    return measurements.MeasurementSet(
        node_ids=case.bus_ids,
        node_values=node_values,
        node_weights=np.tile(measurements.default_node_weights(), (case.n_bus, 1)),
        line_ends=tuple((line.from_bus, line.to_bus) for line in lines),
        line_values=line_values,
        line_weights=np.tile(measurements.default_line_weights(), (len(lines), 1)),
    )


def fd_jacobian(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one column per state component."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((fun(x + e) - fun(x - e)) / (2.0 * h))
    return np.column_stack(cols)
