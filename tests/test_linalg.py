from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
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
    for a in (np.ones((3, 4)), scipy.sparse.csr_array(np.ones((3, 4)))):
        with pytest.raises(DimensionMismatch):
            linalg.matvec(a, np.ones(3))
        with pytest.raises(DimensionMismatch):
            linalg.matvec(a, np.ones((4, 2)), trans=True)


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


@pytest.mark.parametrize("kind", [np.zeros, scipy.sparse.csr_array], ids=["dense", "sparse"])
@pytest.mark.parametrize("rhs_shape", [(0,), (0, 3)], ids=["vector", "matrix"])
def test_solve_linear_solves_the_empty_system(kind, rhs_shape):
    # A one-region partition's posterior boundary system has no rows.
    assert linalg.solve_linear(kind((0, 0)), np.zeros(rhs_shape)).shape == rhs_shape


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


# KktSystem keeps both blocks as CSR whatever kind it receives; each check
# below runs once on dense and once on sparse input.


def _check_ridge_recovers_a_singular_hessian_block(kind):
    # Zero Hessian with one constraint row: the bordered matrix has an
    # exactly zero pivot until the ridge fills the unconstrained direction.
    system = linalg.KktSystem(
        hessian=kind(np.zeros((2, 2))),
        constraint_jacobian=kind(np.array([[1.0, 0.0]])),
        gradient=np.array([0.0, 0.0]),
        residual=np.array([1.0]),
    )
    with pytest.warns(UserWarning):
        sol = linalg.solve_kkt(system)
    assert sol.regularized
    assert abs(sol.step[0] + 1.0) <= 1e-9


def test_solve_kkt_ridge_recovers_a_singular_hessian_block():
    _check_ridge_recovers_a_singular_hessian_block(np.asarray)


def test_sparse_solve_kkt_ridge_recovers_a_singular_hessian_block():
    _check_ridge_recovers_a_singular_hessian_block(scipy.sparse.csr_array)


def _check_raises_when_ridge_cannot_help(kind):
    # Duplicated constraint rows stay linearly dependent no matter what
    # is added to the Hessian block.
    system = linalg.KktSystem(
        hessian=kind(np.zeros((2, 2))),
        constraint_jacobian=kind(np.array([[1.0, 0.0], [1.0, 0.0]])),
        gradient=np.zeros(2),
        residual=np.zeros(2),
    )
    with pytest.warns(UserWarning):
        with pytest.raises(SingularKkt):
            linalg.solve_kkt(system)


def test_solve_kkt_raises_when_ridge_cannot_help():
    _check_raises_when_ridge_cannot_help(np.asarray)


def test_sparse_solve_kkt_raises_when_ridge_cannot_help():
    _check_raises_when_ridge_cannot_help(scipy.sparse.csr_array)


def _check_kkt_system_validation(kind):
    # Each case: the error and its message, the hessian, the constraint
    # Jacobian, and the lengths of the gradient and the residual.
    cases = [
        ((ValueError, "not symmetric"), [[1.0, 2.0], [0.0, 1.0]], np.zeros((0, 2)), 2, 0),
        ((ValueError, "non-finite"), [[1.0, 0.0], [0.0, np.inf]], np.zeros((0, 2)), 2, 0),
        ((ValueError, "non-finite"), np.eye(2), [[np.nan, 1.0]], 2, 1),
        ((DimensionMismatch, "hessian must be square"), np.zeros((2, 3)), np.zeros((0, 3)), 2, 0),
        ((DimensionMismatch, "constraint jacobian"), np.eye(2), np.zeros((1, 3)), 2, 1),
        ((DimensionMismatch, "residual shape"), np.eye(2), np.zeros((1, 2)), 2, 2),
    ]
    for (error, match), hessian, jacobian, n_gradient, n_residual in cases:
        with pytest.raises(error, match=match):
            linalg.KktSystem(
                hessian=kind(np.array(hessian)),
                constraint_jacobian=kind(np.array(jacobian)),
                gradient=np.zeros(n_gradient),
                residual=np.zeros(n_residual),
            )
    system = linalg.KktSystem(kind(np.eye(2)), kind(np.ones((1, 2))), np.zeros(2), np.zeros(1))
    assert system.hessian.format == system.constraint_jacobian.format == "csr"


def test_kkt_system_validation():
    _check_kkt_system_validation(np.asarray)


def test_sparse_kkt_system_validation():
    _check_kkt_system_validation(scipy.sparse.csr_array)


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


def _counting_structural_rank(monkeypatch):
    """Empty the structural-rank cache and count the checks it runs."""
    linalg._full_structural_rank.cache_clear()
    rank = scipy.sparse.csgraph.structural_rank
    calls = []

    def counting(m):
        calls.append(m.shape)
        return rank(m)

    monkeypatch.setattr(scipy.sparse.csgraph, "structural_rank", counting)
    return calls


def test_sparse_factor_checks_each_pattern_structure_once(monkeypatch):
    calls = _counting_structural_rank(monkeypatch)
    m = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
    linalg.SparseFactor(scipy.sparse.csc_array(m))
    linalg.SparseFactor(scipy.sparse.csc_array(2.0 * m))
    assert len(calls) == 1
    # The same shape and nonzero count in other places is another pattern.
    linalg.SparseFactor(scipy.sparse.csc_array(m[::-1]))
    assert len(calls) == 2


def test_a_structurally_singular_pattern_raises_after_full_rank_patterns_are_cached(monkeypatch):
    calls = _counting_structural_rank(monkeypatch)
    for n in range(2, 6):
        linalg.SparseFactor(scipy.sparse.csc_array(np.eye(n)))
    # The shape and nonzero count of the cached 3x3 identity, first column empty.
    singular = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(2):
        with pytest.raises(SingularMatrix, match="structurally singular"):
            linalg.SparseFactor(scipy.sparse.csc_array(singular))
    assert len(calls) == 5


def test_a_write_into_a_factored_matrix_does_not_reach_the_cached_verdict():
    linalg._full_structural_rank.cache_clear()
    m = scipy.sparse.csc_array(np.eye(3))
    linalg.SparseFactor(m)
    # Column 0 now stores row 1, as column 1 does, so row 0 is empty.
    m.indices[0] = 1
    with pytest.raises(SingularMatrix, match="structurally singular"):
        linalg.SparseFactor(m)


def test_the_structural_rank_cache_stays_bounded():
    linalg._full_structural_rank.cache_clear()
    for n in range(1, 41):
        linalg.SparseFactor(scipy.sparse.csc_array(np.eye(n)))
    info = linalg._full_structural_rank.cache_info()
    assert info.currsize <= info.maxsize <= 16


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


def test_a_dense_reduced_step_without_free_columns_is_the_sparse_one():
    """Every column an identity column: Z^T H Z is 0 x 0 and C step = -h."""
    rng = np.random.default_rng(4)
    w = np.array([2, 0, 3, 1])
    c = np.eye(4)[w]
    b, shift, g, h = rng.standard_normal((5, 4)), rng.uniform(0.1, 1.0, 4), rng.standard_normal(4), rng.standard_normal(4)
    dense = linalg.solve_reduced_kkt(b, c, w, shift, g, h)
    sparse = linalg.solve_reduced_kkt(scipy.sparse.csr_array(b), scipy.sparse.csr_array(c), w, shift, g, h)
    assert np.array_equal(dense.step[w], -h)
    assert np.array_equal(dense.step, sparse.step)
    assert np.abs(dense.multipliers - sparse.multipliers).max() <= 1e-12 * np.abs(sparse.multipliers).max()


# The sparse reduced Gauss-Newton step and its cached plan.

def _gauss_newton_system(seed: int, r: int = 6, m: int = 14):
    """A random sparse Gauss-Newton system on n = 3 r states: B (m x n),
    C = [C_u | I] with its r identity columns at random places, a
    positive shift, a gradient and a residual.  B and C are CSR."""
    rng = np.random.default_rng(seed)
    n = 3 * r
    w = rng.permutation(n)[:r]
    u = np.setdiff1d(np.arange(n), w)
    c = np.zeros((r, n))
    c[:, u] = scipy.sparse.random_array((r, len(u)), density=0.3, rng=rng).toarray()
    c[np.arange(r), w] = 1.0
    b = scipy.sparse.random_array((m, n), density=0.25, rng=rng, format="csr")
    return (b, scipy.sparse.csr_array(c), w, rng.uniform(1e-3, 1.0, n),
            rng.standard_normal(n), rng.standard_normal(r))


def _null_space_step(b, c, w, shift, g, h):
    """The null-space step formed densely: H = 2 B^T B + diag(shift) and
    Z with Z[u] = I, Z[w] = -C_u, solving Z^T H Z du = -Z^T (g + H d0)."""
    b, c = b.toarray(), c.toarray()
    n = len(g)
    u = np.setdiff1d(np.arange(n), w)
    hess = 2.0 * b.T @ b + np.diag(shift)
    z = np.zeros((n, len(u)))
    z[u] = np.eye(len(u))
    z[w] = -c[:, u]
    d0 = np.zeros(n)
    d0[w] = -h
    step = d0 + z @ np.linalg.solve(z.T @ hess @ z, -z.T @ (g + hess @ d0))
    return step, -(hess @ step + g)[w]


def _assert_matches_the_dense_and_bordered_steps(sol, b, c, w, shift, g, h):
    step, kappa = _null_space_step(b, c, w, shift, g, h)
    hess = linalg.gram(b.toarray(), 2.0) + np.diag(shift)
    bordered = linalg.solve_kkt(linalg.KktSystem(hessian=hess, constraint_jacobian=c, gradient=g, residual=h))
    assert not sol.regularized
    for want_step, want_kappa in ((step, kappa), (bordered.step, bordered.multipliers)):
        assert np.abs(sol.step - want_step).max() <= 1e-10 * np.abs(want_step).max()
        # max(initial=0.0): a system without constraint rows has no multipliers.
        error = np.abs(sol.multipliers - want_kappa).max(initial=0.0)
        assert error <= 1e-10 * np.abs(want_kappa).max(initial=0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_the_planned_sparse_step_matches_the_dense_and_bordered_steps(seed):
    b, c, w, shift, g, h = _gauss_newton_system(seed)
    sol = linalg.solve_reduced_kkt(b, c, w, shift, g, h)
    _assert_matches_the_dense_and_bordered_steps(sol, b, c, w, shift, g, h)


def _degenerate(pattern, b, c, w, shift, g, h):
    """The system of _gauss_newton_system changed to a pattern where B_w C_u has no product term."""
    if pattern == "no-B-entry-in-an-identity-column":
        b = b.toarray()
        b[:, w] = 0.0
    elif pattern == "empty-C_u":
        c = np.zeros(c.shape)
        c[np.arange(len(w)), w] = 1.0
    elif pattern == "no-constraint-rows":
        c, w, h = c[:0], w[:0], h[:0]
    else:
        b = b[:0]
    return scipy.sparse.csr_array(b), scipy.sparse.csr_array(c), w, shift, g, h


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
@pytest.mark.parametrize(
    "pattern", ["no-B-entry-in-an-identity-column", "empty-C_u", "no-constraint-rows", "no-B-rows"]
)
def test_the_planned_sparse_step_solves_patterns_without_product_terms(pattern, seed):
    system = _degenerate(pattern, *_gauss_newton_system(seed))
    _assert_matches_the_dense_and_bordered_steps(linalg.solve_reduced_kkt(*system), *system)


def test_the_plan_reads_non_canonical_input_as_its_canonical_form():
    """Unsorted indices and duplicate entries: the caller's matrix is left as it is."""
    b, c, w, shift, g, h = _gauss_newton_system(1)
    # Each row's entries twice, at half their value, in descending column order.
    rows = [np.concatenate([b.indices[b.indptr[i]:b.indptr[i + 1]][::-1]] * 2) for i in range(b.shape[0])]
    values = [np.concatenate([b.data[b.indptr[i]:b.indptr[i + 1]][::-1] / 2.0] * 2) for i in range(b.shape[0])]
    doubled = scipy.sparse.csr_array(
        (np.concatenate(values), np.concatenate(rows), np.concatenate(([0], np.cumsum([len(r) for r in rows])))),
        shape=b.shape,
    )
    assert not doubled.has_canonical_format
    before = doubled.indices.copy()
    sol = linalg.solve_reduced_kkt(doubled, c, w, shift, g, h)
    _assert_matches_the_dense_and_bordered_steps(sol, b, c, w, shift, g, h)
    assert np.array_equal(doubled.indices, before)


def test_each_sparsity_pattern_gets_its_own_plan():
    linalg._reduced_plan.cache_clear()
    b, c, w, shift, g, h = _gauss_newton_system(2)
    linalg.solve_reduced_kkt(b, c, w, shift, g, h)
    linalg.solve_reduced_kkt(2.0 * b, c, w, shift, g, h)
    assert linalg._reduced_plan.cache_info().misses == 1
    # The same shape and nonzero count in other places is another pattern.
    flipped = scipy.sparse.csr_array(b[::-1])
    assert flipped.shape == b.shape and flipped.nnz == b.nnz
    assert not np.array_equal(flipped.indices, b.indices)
    sol = linalg.solve_reduced_kkt(flipped, c, w, shift, g, h)
    assert linalg._reduced_plan.cache_info().misses == 2
    _assert_matches_the_dense_and_bordered_steps(sol, flipped, c, w, shift, g, h)


def test_a_write_into_a_solved_jacobian_does_not_reach_the_cached_plan():
    linalg._reduced_plan.cache_clear()
    b, c, w, shift, g, h = _gauss_newton_system(3)
    linalg.solve_reduced_kkt(b, c, w, shift, g, h)
    # Row 2 stores columns 2 and 15; its second entry moves to column 14.
    assert list(b.indices[b.indptr[2]:b.indptr[3]]) == [2, 15]
    b.indices[b.indptr[2] + 1] = 14
    assert b.has_canonical_format
    sol = linalg.solve_reduced_kkt(b, c, w, shift, g, h)
    assert linalg._reduced_plan.cache_info().misses == 2
    _assert_matches_the_dense_and_bordered_steps(sol, b, c, w, shift, g, h)


def test_the_plan_cache_stays_bounded():
    linalg._reduced_plan.cache_clear()
    for seed in range(20):
        linalg.solve_reduced_kkt(*_gauss_newton_system(seed))
    info = linalg._reduced_plan.cache_info()
    assert info.currsize <= info.maxsize <= 8
