from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gridest import aladin, coordinator, linalg
from gridest.errors import DimensionMismatch

from conftest import coupling_form_params


def _upload(rng, n, m, n_coupling):
    root = rng.standard_normal((n + 2, n))
    return coordinator.SensitivityUpload(
        fit_hessian=root.T @ root + 0.5 * np.eye(n),
        fit_gradient=rng.standard_normal(n),
        constraint_jacobian=rng.standard_normal((m, n)),
        coupling_image=rng.standard_normal(n_coupling),
    )


def test_consensus_solution_matches_a_hand_assembled_system():
    """Assemble the full coordination KKT matrix directly with numpy blocks
    and compare every returned piece against its exact solve."""
    rng = np.random.default_rng(42)
    n1, n2, m1, m2, nc = 4, 3, 2, 1, 2
    up1 = _upload(rng, n1, m1, nc)
    up2 = _upload(rng, n2, m2, nc)
    a1 = rng.standard_normal((nc, n1))
    a2 = rng.standard_normal((nc, n2))

    sol = coordinator.solve_consensus([up1, up2], [a1, a2])

    n = n1 + n2
    m = m1 + m2
    kkt = np.zeros((n + m + nc, n + m + nc))
    kkt[:n1, :n1] = 2.0 * up1.fit_hessian
    kkt[n1:n, n1:n] = 2.0 * up2.fit_hessian
    jac = np.zeros((m + nc, n))
    jac[:m1, :n1] = up1.constraint_jacobian
    jac[m1:m, n1:n] = up2.constraint_jacobian
    jac[m:, :n1] = a1
    jac[m:, n1:] = a2
    kkt[:n, n:] = jac.T
    kkt[n:, :n] = jac
    rhs = np.concatenate([
        -2.0 * up1.fit_gradient,
        -2.0 * up2.fit_gradient,
        np.zeros(m),
        -(up1.coupling_image + up2.coupling_image),
    ])
    direct = np.linalg.solve(kkt, rhs)

    assert np.allclose(sol.step, direct[:n], atol=1e-9)
    assert np.allclose(sol.multipliers, direct[n + m :], atol=1e-9)
    assert not sol.regularized


def test_consensus_steps_close_the_gap_within_the_linear_model():
    # Feasibility rows force sum_i A_i (y_i + step_i) = 0 exactly.
    rng = np.random.default_rng(7)
    n1, n2, nc = 5, 4, 3
    up1 = _upload(rng, n1, 0, nc)
    up2 = _upload(rng, n2, 0, nc)
    up1 = coordinator.SensitivityUpload(
        fit_hessian=up1.fit_hessian, fit_gradient=up1.fit_gradient,
        constraint_jacobian=np.zeros((0, n1)), coupling_image=up1.coupling_image,
    )
    a1 = rng.standard_normal((nc, n1))
    a2 = rng.standard_normal((nc, n2))
    sol = coordinator.solve_consensus([up1, up2], [a1, a2])
    gap = up1.coupling_image + up2.coupling_image
    closed = gap + a1 @ sol.step[:n1] + a2 @ sol.step[n1:]
    assert np.abs(closed).max() <= 1e-8


def test_upload_float_count_is_packed_symmetric_plus_dense_rest():
    n, m, nc = 6, 4, 3
    assert coordinator.upload_floats(n, (m, n), nc) == n * (n + 1) // 2 + m * n + n + nc
    # 30-bus sized region: 4 * 12 states, 2 * 12 constraint rows, 16 coupling rows.
    assert coordinator.upload_floats(48, (24, 48), 16) == 48 * 49 // 2 + 24 * 48 + 48 + 16


def test_download_float_count_is_lambda_plus_own_step(aladin30, part30):
    """Each coordinating iteration sends every region lam and its own step;
    the final iteration sends nothing."""
    expected = sum(part30.n_coupling_rows + region.n_states for region in part30.regions)
    assert [r.download_floats for r in aladin30.history] == [expected] * (aladin30.iterations - 1) + [0]


def test_dimension_mismatches_are_rejected():
    rng = np.random.default_rng(3)
    up = _upload(rng, 4, 2, 2)
    with pytest.raises(DimensionMismatch):
        coordinator.solve_consensus([up], [])
    with pytest.raises(DimensionMismatch):
        coordinator.solve_consensus([], [])
    with pytest.raises(DimensionMismatch):
        coordinator.solve_consensus([up], [rng.standard_normal((2, 5))])
    bad = coordinator.SensitivityUpload(
        fit_hessian=up.fit_hessian,
        fit_gradient=np.zeros(5),
        constraint_jacobian=up.constraint_jacobian,
        coupling_image=up.coupling_image,
    )
    with pytest.raises(DimensionMismatch):
        coordinator.solve_consensus([bad], [rng.standard_normal((2, 4))])


def _consensus_calls(monkeypatch, part, mset):
    """Every (uploads, couplings) a default estimator run hands the coordinator."""
    calls = []
    solve = coordinator.solve_consensus

    def record(uploads, couplings):
        calls.append((uploads, couplings))
        return solve(uploads, couplings)

    monkeypatch.setattr(coordinator, "solve_consensus", record)
    aladin.run_aladin(part, mset)
    monkeypatch.undo()
    assert calls
    return calls


def _scenario(request, name):
    if name == "ieee30":
        return request.getfixturevalue("part30"), request.getfixturevalue("mset30")
    return request.getfixturevalue("two_tile30")


def _dense(a):
    return a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)


def _dense_consensus(uploads, couplings):
    """Reference: dense bordered matrix factored with LU (solve_linear),
    from the uploads and couplings densified."""
    hessian = scipy.linalg.block_diag(*[2.0 * _dense(up.fit_hessian) for up in uploads])
    jac = np.vstack(
        [scipy.linalg.block_diag(*[_dense(up.constraint_jacobian) for up in uploads]),
         np.hstack([_dense(a) for a in couplings])]
    )
    n, m = hessian.shape[0], jac.shape[0] - couplings[0].shape[0]
    rhs = np.concatenate(
        [-2.0 * np.concatenate([up.fit_gradient for up in uploads]), np.zeros(m),
         -np.sum([up.coupling_image for up in uploads], axis=0)]
    )
    sol = linalg.solve_linear(np.block([[hessian, jac.T], [jac, np.zeros((len(jac), len(jac)))]]), rhs)
    return sol[:n], sol[n + m :]


@pytest.mark.parametrize("name, form", coupling_form_params(["ieee30", "two_tile30"]))
def test_sparse_consensus_matches_the_dense_reference(request, monkeypatch, name, form):
    part, mset = _scenario(request, name)
    for uploads, couplings in _consensus_calls(monkeypatch, part, mset):
        sol = coordinator.solve_consensus(uploads, form(couplings))
        steps, lam = _dense_consensus(uploads, couplings)
        assert not sol.regularized
        assert np.abs(sol.step - steps).max() <= 1e-10
        assert np.abs(sol.multipliers - lam).max() <= 1e-10 * np.abs(lam).max()


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_zero_fit_hessian_upload_is_ridge_regularized(request, monkeypatch, name):
    # Region 0 without a fit term leaves its states free along the null
    # space of its physics and coupling rows: the bordered matrix is singular.
    # The run uploads its whole batch at once, so region 0's rows and
    # columns of the union fit Hessian are zeroed.
    part, mset = _scenario(request, name)
    uploads, couplings = _consensus_calls(monkeypatch, part, mset)[0]
    region0 = np.arange(uploads[0].fit_hessian.shape[0]) < part.regions[0].n_states
    zeroed = np.where(region0[:, None] | region0, 0.0, uploads[0].fit_hessian.toarray())
    uploads = [dataclasses.replace(uploads[0], fit_hessian=scipy.sparse.csr_array(zeroed))] + uploads[1:]
    with pytest.warns(UserWarning, match="ridge"):
        sol = coordinator.solve_consensus(uploads, couplings)
    assert sol.regularized
    # The ridge touches only the Hessian block, so consensus still closes.
    gap = np.sum([up.coupling_image for up in uploads], axis=0)
    closed = gap + scipy.sparse.hstack(couplings, format="csr") @ sol.step
    assert np.abs(closed).max() <= 1e-8


@pytest.mark.parametrize("name", ["ieee30", "two_tile30"])
def test_csr_uploads_and_their_dense_copies_give_the_same_step(request, monkeypatch, name):
    """The run uploads CSR blocks; their .toarray() copies, which store no
    exact zeros, give the same steps and lam."""
    for uploads, couplings in _consensus_calls(monkeypatch, *_scenario(request, name)):
        dense = [dataclasses.replace(up, fit_hessian=up.fit_hessian.toarray(),
                                     constraint_jacobian=up.constraint_jacobian.toarray()) for up in uploads]
        sparse_sol = coordinator.solve_consensus(uploads, couplings)
        dense_sol = coordinator.solve_consensus(dense, couplings)
        steps, lam = dense_sol.step, dense_sol.multipliers
        assert np.abs(sparse_sol.step - steps).max() <= 1e-12 * np.abs(steps).max()
        assert np.abs(sparse_sol.multipliers - lam).max() <= 1e-12 * np.abs(lam).max()
        for up in uploads:
            assert up.fit_hessian.format == up.constraint_jacobian.format == "csr"


def _non_2d_blocks():
    """(field, value) parameters: upload blocks, or the coupling matrix,
    that are not 2-D, dense and CSR."""
    rng = np.random.default_rng(5)
    return [
        pytest.param("fit_hessian", np.zeros(()), id="0-d-hessian"),
        pytest.param("fit_hessian", rng.standard_normal(4), id="1-d-hessian"),
        pytest.param("fit_hessian", scipy.sparse.csr_array(rng.standard_normal(4)), id="1-d-csr-hessian"),
        pytest.param("constraint_jacobian", rng.standard_normal(4), id="1-d-jacobian"),
        pytest.param("constraint_jacobian", scipy.sparse.csr_array(rng.standard_normal(4)), id="1-d-csr-jacobian"),
        pytest.param("coupling", rng.standard_normal(4), id="1-d-coupling"),
        pytest.param("coupling", scipy.sparse.csr_array(rng.standard_normal(4)), id="1-d-csr-coupling"),
    ]


@pytest.mark.parametrize("field, value", _non_2d_blocks())
def test_non_2d_blocks_are_rejected_before_assembly(monkeypatch, field, value):
    rng = np.random.default_rng(3)
    up, coupling = _upload(rng, 4, 2, 2), rng.standard_normal((2, 4))
    if field == "coupling":
        coupling = value
    else:
        up = dataclasses.replace(up, **{field: value})

    def unreachable(*args, **kwargs):
        raise AssertionError("assembly reached")

    monkeypatch.setattr(linalg, "stack_csr", unreachable)
    with pytest.raises(DimensionMismatch, match="expected 2-D"):
        coordinator.solve_consensus([up], [coupling])
