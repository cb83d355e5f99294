from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import linalg
from gridest.errors import DimensionMismatch, SingularKkt, SingularMatrix


def _layouts(m: int, n: int, seed: int) -> dict[str, np.ndarray]:
    """The same kind of m x n operand C-ordered, F-ordered and as a strided slice."""
    rng = np.random.default_rng(seed)
    return {
        "C": rng.standard_normal((m, n)),
        "F": np.asfortranarray(rng.standard_normal((m, n))),
        "sliced": rng.standard_normal((2 * m, 3 * n))[::2, 1::3],
    }


def _assert_product_close(got, ref, a, x):
    """Within 1e-14 of numpy's product, relative to the sum of |terms|."""
    scale = (np.abs(a) @ np.abs(x)).max(initial=0.0)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("shape", [(7, 5), (40, 13), (13, 40), (1, 9)])
def test_gram_matches_numpy(layout, shape):
    a = _layouts(*shape, seed=2)[layout]
    _assert_product_close(linalg.gram(a, 2.0), 2.0 * (a.T @ a), a.T, a)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("a_layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("x_layout", ["vector", "C", "F", "sliced"])
def test_matvec_matches_numpy(trans, a_layout, x_layout):
    a = _layouts(23, 11, seed=3)[a_layout]
    op = a.T if trans else a
    if x_layout == "vector":
        x = np.random.default_rng(4).standard_normal(op.shape[1])
    else:
        x = _layouts(op.shape[1], 6, seed=4)[x_layout]
    _assert_product_close(linalg.matvec(a, x, trans=trans), op @ x, op, x)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("ndim", [1, 2])
def test_matvec_and_gram_take_sparse_input(trans, ndim):
    dense = _layouts(17, 9, seed=5)["C"]
    dense[np.abs(dense) < 1.0] = 0.0
    a = scipy.sparse.csr_array(dense)
    op = dense.T if trans else dense
    x = np.random.default_rng(6).standard_normal((op.shape[1], 4)[:ndim])
    got = linalg.matvec(a, x, trans=trans)
    _assert_product_close(np.asarray(got), op @ x, op, x)
    g = linalg.gram(a, 2.0)
    assert scipy.sparse.issparse(g)
    _assert_product_close(g.toarray(), 2.0 * (dense.T @ dense), dense.T, dense)


def test_zero_row_operands_give_zero_products():
    # The one-region partition has no coupling rows.
    a = np.zeros((0, 5))
    assert np.array_equal(linalg.matvec(a, np.zeros(0), trans=True), np.zeros(5))
    assert linalg.matvec(a, np.ones(5)).shape == (0,)
    assert np.array_equal(linalg.matvec(a, np.zeros((0, 3)), trans=True), np.zeros((5, 3)))
    assert linalg.matvec(a, np.ones((5, 3))).shape == (0, 3)
    assert np.array_equal(linalg.gram(a), np.zeros((5, 5)))


def test_matvec_rejects_mismatched_operands():
    with pytest.raises(DimensionMismatch):
        linalg.matvec(np.ones((3, 4)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        linalg.matvec(np.ones((3, 4)), np.ones((4, 2)), trans=True)


def test_solve_linear_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        b = rng.standard_normal(12)
        x = linalg.solve_linear(a, b)
        assert np.abs(a @ x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())


def test_solve_linear_with_a_matrix_rhs_matches_column_solves():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    b = rng.standard_normal((40, 7))
    x = linalg.solve_linear(a, b)
    columns = np.column_stack([linalg.solve_linear(a, b[:, j]) for j in range(b.shape[1])])
    assert x.shape == b.shape
    assert np.abs(x - columns).max() <= 1e-12 * np.abs(columns).max()
    assert linalg.solve_linear(a, np.empty((40, 0))).shape == (40, 0)


def test_solve_linear_backward_error_on_ill_conditioned_system():
    # Hilbert matrix, condition number ~ 1e10 at n = 8; plain LU alone
    # would miss the backward error bound without the refinement step.
    n = 8
    a = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = np.ones(n)
    x = linalg.solve_linear(a, b)
    assert np.abs(a @ x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())


def test_solve_linear_rejects_singular_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(a, np.ones(2))


def test_solve_linear_dimension_errors():
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        linalg.solve_linear(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_solve_linear_sends_sparse_input_to_sparse_lu():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    b = rng.standard_normal((12, 2))
    x = linalg.solve_linear(scipy.sparse.csr_array(a), b)
    assert np.abs(a @ x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
    assert np.abs(x - linalg.solve_linear(a, b)).max() <= 1e-12
    with pytest.raises(SingularMatrix):
        linalg.solve_linear(scipy.sparse.csr_array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(scipy.sparse.csr_array((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        linalg.solve_linear(scipy.sparse.eye_array(2), np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        linalg.solve_linear(scipy.sparse.csr_array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_symmetric_factor_indefinite_system():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    eig = np.array([-4.0, -2.0, -1.0, -0.5, 0.3, 1.0, 2.0, 3.0, 5.0])
    m = q @ np.diag(eig) @ q.T
    m = 0.5 * (m + m.T)
    factor = linalg.SymmetricFactor(m)
    for _ in range(3):
        b = rng.standard_normal(9)
        x = factor.solve(b)
        assert np.abs(m @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_symmetric_factor_rejects_singular_matrix():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        linalg.SymmetricFactor(m)


def test_symmetric_factor_rejects_a_singular_2x2_pivot_block():
    # 1 (+) [[0, e], [e, 0]]: the zero diagonal forces a 2x2 pivot whose
    # eigenvalues +-1e-15 are below PIVOT_RTOL times the largest entry.
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    m[1, 2] = m[2, 1] = 1e-15
    with pytest.raises(SingularMatrix, match="2x2"):
        linalg.SymmetricFactor(m)


def test_symmetric_factor_solves_the_columns_of_a_2d_rhs():
    rng = np.random.default_rng(2)
    root = rng.standard_normal((12, 12))
    m = root + root.T
    m[:4, :4] = 0.0  # zero diagonal entries force 2x2 pivots
    b = rng.standard_normal((12, 5))
    x = linalg.SymmetricFactor(m).solve(b)
    assert x.shape == (12, 5)
    assert np.abs(m @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_solve_kkt_hand_example():
    # minimize d^T d + (2, 0)^T d subject to d_1 + d_2 = 0:
    # elimination gives step (-1/2, 1/2) and multiplier -1.
    system = linalg.KktSystem(
        hessian=2.0 * np.eye(2),
        constraint_jacobian=np.array([[1.0, 1.0]]),
        gradient=np.array([2.0, 0.0]),
        residual=np.zeros(1),
    )
    sol = linalg.solve_kkt(system)
    assert not sol.regularized
    assert np.allclose(sol.step, [-0.5, 0.5], atol=1e-12)
    assert np.allclose(sol.multipliers, [-1.0], atol=1e-12)


def test_solve_kkt_residual_shifts_the_step():
    # Same system with constraint residual 1 forces d_1 + d_2 = -1.
    system = linalg.KktSystem(
        hessian=2.0 * np.eye(2),
        constraint_jacobian=np.array([[1.0, 1.0]]),
        gradient=np.array([2.0, 0.0]),
        residual=np.array([1.0]),
    )
    sol = linalg.solve_kkt(system)
    assert abs(sol.step.sum() + 1.0) <= 1e-12


def test_solve_kkt_without_constraints_is_a_newton_step():
    h = np.diag([2.0, 8.0])
    g = np.array([4.0, -8.0])
    system = linalg.KktSystem(
        hessian=h,
        constraint_jacobian=np.zeros((0, 2)),
        gradient=g,
        residual=np.zeros(0),
    )
    sol = linalg.solve_kkt(system)
    assert np.allclose(sol.step, [-2.0, 1.0], atol=1e-12)
    assert sol.multipliers.size == 0


def test_solve_kkt_ridge_recovers_a_singular_hessian_block():
    # Zero Hessian with one constraint row: the bordered matrix has an
    # exactly zero pivot until the ridge fills the unconstrained direction.
    system = linalg.KktSystem(
        hessian=np.zeros((2, 2)),
        constraint_jacobian=np.array([[1.0, 0.0]]),
        gradient=np.array([0.0, 0.0]),
        residual=np.array([1.0]),
    )
    with pytest.warns(UserWarning):
        sol = linalg.solve_kkt(system)
    assert sol.regularized
    assert abs(sol.step[0] + 1.0) <= 1e-9


def test_solve_kkt_raises_when_ridge_cannot_help():
    # Duplicated constraint rows stay linearly dependent no matter what
    # is added to the Hessian block.
    system = linalg.KktSystem(
        hessian=np.zeros((2, 2)),
        constraint_jacobian=np.array([[1.0, 0.0], [1.0, 0.0]]),
        gradient=np.zeros(2),
        residual=np.zeros(2),
    )
    with pytest.warns(UserWarning):
        with pytest.raises(SingularKkt):
            linalg.solve_kkt(system)


def test_kkt_system_validation():
    with pytest.raises(ValueError):
        linalg.KktSystem(
            hessian=np.array([[1.0, 2.0], [0.0, 1.0]]),
            constraint_jacobian=np.zeros((0, 2)),
            gradient=np.zeros(2),
            residual=np.zeros(0),
        )
    with pytest.raises(DimensionMismatch):
        linalg.KktSystem(
            hessian=np.eye(2),
            constraint_jacobian=np.zeros((1, 3)),
            gradient=np.zeros(2),
            residual=np.zeros(1),
        )
    with pytest.raises(DimensionMismatch):
        linalg.KktSystem(
            hessian=np.eye(2),
            constraint_jacobian=np.zeros((1, 2)),
            gradient=np.zeros(2),
            residual=np.zeros(2),
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_solve_kkt_stationarity_and_feasibility(n, seed):
    """Post-condition of the solver: both KKT residuals below 1e-8."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n + 2, n))
    h = root.T @ root + 0.1 * np.eye(n)
    m = rng.integers(0, n)
    j = rng.standard_normal((m, n))
    g = rng.standard_normal(n)
    r = rng.standard_normal(m)
    system = linalg.KktSystem(hessian=h, constraint_jacobian=j, gradient=g, residual=r)
    sol = linalg.solve_kkt(system)
    stationarity = h @ sol.step + g + j.T @ sol.multipliers
    feasibility = j @ sol.step + r
    assert np.abs(stationarity).max(initial=0.0) <= 1e-8
    assert np.abs(feasibility).max(initial=0.0) <= 1e-8


def test_sparse_factor_indefinite_system():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    eig = np.array([-4.0, -2.0, -1.0, -0.5, 0.3, 1.0, 2.0, 3.0, 5.0])
    m = q @ np.diag(eig) @ q.T
    m = 0.5 * (m + m.T)
    factor = linalg.SparseFactor(scipy.sparse.csc_array(m))
    b = rng.standard_normal((9, 3))
    x = factor.solve(b)
    assert np.abs(m @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_sparse_factor_rejects_singular_matrix():
    # Structurally singular (empty first column), an exactly zero pivot
    # (SuperLU refuses) and one below PIVOT_RTOL.
    for m in ([[0.0, 1.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 2e-16]]):
        with pytest.raises(SingularMatrix):
            linalg.SparseFactor(scipy.sparse.csc_array(m))


def test_sparse_solve_kkt_ridge_recovers_a_singular_hessian_block():
    system = linalg.KktSystem(
        hessian=scipy.sparse.csr_array((2, 2)),
        constraint_jacobian=scipy.sparse.csr_array([[1.0, 0.0]]),
        gradient=np.array([0.0, 0.0]),
        residual=np.array([1.0]),
    )
    with pytest.warns(UserWarning):
        sol = linalg.solve_kkt(system)
    assert sol.regularized
    assert abs(sol.step[0] + 1.0) <= 1e-9


def test_sparse_solve_kkt_raises_when_ridge_cannot_help():
    system = linalg.KktSystem(
        hessian=scipy.sparse.csr_array((2, 2)),
        constraint_jacobian=scipy.sparse.csr_array([[1.0, 0.0], [1.0, 0.0]]),
        gradient=np.zeros(2),
        residual=np.zeros(2),
    )
    with pytest.warns(UserWarning):
        with pytest.raises(SingularKkt):
            linalg.solve_kkt(system)


def test_sparse_kkt_system_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.KktSystem(
            hessian=scipy.sparse.csr_array([[1.0, 2.0], [0.0, 1.0]]),
            constraint_jacobian=scipy.sparse.csr_array((0, 2)),
            gradient=np.zeros(2),
            residual=np.zeros(0),
        )
    with pytest.raises(ValueError, match="non-finite"):
        linalg.KktSystem(
            hessian=scipy.sparse.csr_array([[1.0, 0.0], [0.0, np.inf]]),
            constraint_jacobian=scipy.sparse.csr_array((0, 2)),
            gradient=np.zeros(2),
            residual=np.zeros(0),
        )
    with pytest.raises(ValueError, match="non-finite"):
        linalg.KktSystem(
            hessian=scipy.sparse.eye_array(2),
            constraint_jacobian=scipy.sparse.csr_array([[np.nan, 1.0]]),
            gradient=np.zeros(2),
            residual=np.zeros(1),
        )
    with pytest.raises(DimensionMismatch):
        linalg.KktSystem(
            hessian=scipy.sparse.csr_array((2, 3)),
            constraint_jacobian=scipy.sparse.csr_array((0, 3)),
            gradient=np.zeros(2),
            residual=np.zeros(0),
        )
    with pytest.raises(DimensionMismatch):
        linalg.KktSystem(
            hessian=scipy.sparse.eye_array(2),
            constraint_jacobian=scipy.sparse.csr_array((1, 3)),
            gradient=np.zeros(2),
            residual=np.zeros(1),
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_sparse_solve_kkt_stationarity_feasibility_and_dense_agreement(n, seed):
    """The sparse path keeps the post-condition and matches the dense path."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n + 2, n))
    h = root.T @ root + 0.1 * np.eye(n)
    m = rng.integers(0, n)
    j = rng.standard_normal((m, n))
    g = rng.standard_normal(n)
    r = rng.standard_normal(m)
    sol = linalg.solve_kkt(
        linalg.KktSystem(
            hessian=scipy.sparse.csr_array(h),
            constraint_jacobian=scipy.sparse.csr_array(j),
            gradient=g,
            residual=r,
        )
    )
    stationarity = h @ sol.step + g + j.T @ sol.multipliers
    feasibility = j @ sol.step + r
    assert np.abs(stationarity).max(initial=0.0) <= 1e-8
    assert np.abs(feasibility).max(initial=0.0) <= 1e-8
    dense = linalg.solve_kkt(linalg.KktSystem(hessian=h, constraint_jacobian=j, gradient=g, residual=r))
    assert not sol.regularized and not dense.regularized
    assert np.abs(sol.step - dense.step).max() <= 1e-10
    assert np.abs(sol.multipliers - dense.multipliers).max(initial=0.0) <= 1e-10
