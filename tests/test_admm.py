from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from gridest import admm, aladin, local_solver, partition


@pytest.fixture(scope="module")
def admm30(part30, mset30, truth30):
    return admm.run_admm(part30, mset30, truth=truth30)


def test_default_scenario_converges(admm30):
    assert admm30.converged
    assert admm30.iterations <= 200
    assert admm30.final_violation <= 1e-4


def test_violation_definition_matches_the_partition_gap(admm30, part30):
    gap = partition.consensus_gap(part30, admm30.zs)
    assert np.abs(gap).max() <= 1e-4


def test_estimate_is_reasonable(admm30, truth30, part30):
    estimate = partition.restrict_state(part30, admm30.zs)
    assert np.abs(estimate - truth30).max() <= 0.05


def test_communication_is_coupled_values_only(admm30, part30):
    # Per iteration each region sends and receives its coupled components.
    per_iteration = 2 * part30.n_coupling_rows
    for record in admm30.history:
        assert record.upload_floats == per_iteration
        assert record.download_floats == per_iteration


def test_needs_more_iterations_than_the_quadratic_method(admm30, aladin30):
    def first_below(history, level):
        for record in history:
            if record.consensus_violation <= level:
                return record.iteration
        return None

    admm_at = first_below(admm30.history, 1e-3)
    aladin_at = first_below(aladin30.history, 1e-3)
    assert aladin_at is not None and admm_at is not None
    assert aladin_at < admm_at


def test_same_seed_reruns_are_bitwise_identical(part30, mset30):
    a = admm.run_admm(part30, mset30, config=aladin.RunConfig(max_outer=5))
    b = admm.run_admm(part30, mset30, config=aladin.RunConfig(max_outer=5))
    for ra, rb in zip(a.history, b.history):
        assert ra.consensus_violation == rb.consensus_violation
        assert ra.step_norm == rb.step_norm
    for za, zb in zip(a.zs, b.zs):
        assert np.array_equal(za, zb)


def test_iteration_budget_is_respected(part30, mset30):
    result = admm.run_admm(part30, mset30, config=aladin.RunConfig(max_outer=3))
    assert not result.converged
    assert result.iterations == 3
    assert result.note != ""


def test_the_projection_closes_every_consensus_row(monkeypatch, part30, mset30):
    """Every batch after the first pulls the copies toward targets that
    satisfy sum_i A_i zeta_i = 0, and names each coupled state once."""
    solve = local_solver.solve_batch
    batches = []

    def recording(*args, **kwargs):
        batches.append((kwargs["prox_idx"], kwargs["prox_target"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(local_solver, "solve_batch", recording)
    admm.run_admm(part30, mset30, config=aladin.RunConfig(max_outer=5))
    border = scipy.sparse.hstack(part30.coupling).tocsc()
    coupled = np.flatnonzero(np.diff(border.indptr))
    assert len(batches) == 5
    for idx, target in batches[1:]:
        assert np.array_equal(np.sort(idx), coupled)
        closing = border[:, idx] @ target
        assert np.abs(closing).max() <= 1e-12 * np.abs(target).max()
