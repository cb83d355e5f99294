from __future__ import annotations

import numpy as np
import pytest

import tiling
from gridest import central, grid, local_solver, measurements, partition, powerflow
from gridest.errors import DimensionMismatch, Diverged


def test_zero_noise_recovers_the_truth(case30, truth30):
    mset = measurements.simulate_measurements(case30, truth30, noise=None, rng=0)
    sol = central.solve_central(case30, mset)
    assert np.abs(sol.x - truth30).max() <= 1e-8
    assert sol.fit <= 1e-16


@pytest.mark.parametrize("length", [3, 4 * 30 + 1])
def test_a_start_state_of_the_wrong_length_is_rejected(case30, mset30, length):
    with pytest.raises(DimensionMismatch):
        central.solve_central(case30, mset30, x0=np.ones(length))


def test_noisy_estimate_beats_the_truth_in_objective(case30, truth30, mset30, central30):
    # The optimum fits the realized measurements at least as well as the
    # truth does; with noise present the inequality is strict.
    residual = measurements.RegionResidual(case30, mset30)
    fit_truth = float(residual.eval(truth30) @ residual.eval(truth30))
    assert central30.fit < fit_truth
    assert np.abs(central30.x - truth30).max() <= 0.05


def test_solution_satisfies_the_power_flow_constraints(case30, central30):
    from gridest import grid

    model = grid.PowerFlowModel(case30)
    assert np.abs(model.eval(central30.x)).max() <= 1e-9


def test_kkt_quality_is_reported(central30):
    assert central30.kkt_residual <= 1e-8
    assert central30.inner_iterations <= 30


def test_custom_start_point(case30, truth30, mset30, central30):
    sol = central.solve_central(case30, mset30, x0=truth30)
    assert np.abs(sol.x - central30.x).max() <= 1e-7


def test_exhausted_budget_raises(case30, mset30):
    with pytest.raises(Diverged):
        central.solve_central(case30, mset30, max_iter=1)


def test_kkt_quality_holds_across_measurement_seeds(case30, part30, truth30):
    """Seeds 0-29 of the default scenario: every solve reaches 1e-8.

    Near the rounding floor the line search used to reject full steps on
    the noise of the penalty term and the exit reported multipliers from
    the previous iterate; 7 of these 30 seeds then stopped above 1e-8
    (seed 1 at 3.4e-5).
    """
    lines = partition.internal_line_keys(part30)
    for seed in range(30):
        mset = measurements.simulate_measurements(case30, truth30, rng=seed, measured_lines=lines)
        sol = central.solve_central(case30, mset)
        assert sol.kkt_residual <= 1e-8, f"seed {seed}"
        assert sol.inner_iterations <= 30, f"seed {seed}"


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_sparse_solve_matches_the_dense_jacobian_solve(request, name):
    if name == "ieee30":
        case, mset = request.getfixturevalue("case30"), request.getfixturevalue("mset30")
    else:
        part, mset = request.getfixturevalue("two_tile30")
        case = part.case
    sol = central.solve_central(case, mset)
    dense = local_solver.solve_local(
        measurements.RegionResidual(case, mset), grid.PowerFlowModel(case),
        y0=grid.flat_state(case.n_bus), mu=1e-8, tol=1e-9, max_inner=100,
    )
    assert dense.converged
    assert np.abs(sol.x - dense.y).max() <= 1e-8



@pytest.mark.parametrize("tiles, seed, bound", [
    *(pytest.param(0, seed, 8, id=f"ieee30-seed{seed}") for seed in (1, 2, 3, 7)),
    pytest.param(8, 1, 9, id="tiles8-seed1"),
])
def test_the_multiplier_refit_at_the_first_dust_step_ends_the_solve(case30, part30, truth30, tiles, seed, bound):
    """Once a step is rounding dust, the refitted multipliers reach tol
    there; the solve no longer takes two more dust steps to its floor exit."""
    if tiles:
        case = tiling.tiled_case(tiles)
        part = partition.partition_grid(case, tiling.tile_assignment(case))
        truth = powerflow.solve_power_flow(case).state
    else:
        case, part, truth = case30, part30, truth30
    mset = measurements.simulate_measurements(
        case, truth, rng=seed, measured_lines=partition.internal_line_keys(part)
    )
    tol = 1e-9
    sol = central.solve_central(case, mset, tol=tol)
    assert sol.inner_iterations <= bound
    assert sol.kkt_residual <= tol
