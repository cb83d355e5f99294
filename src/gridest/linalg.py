"""Direct solvers used everywhere else in the package.

Square general systems go through partially pivoted LU.  A KKT system is
symmetric but indefinite; solve_kkt factors it whole, as a bordered
matrix, with no assumption that the Hessian block alone is invertible.
A Gauss-Newton KKT system whose constraint Jacobian is the identity on
some columns, as the power-flow rows are on each node's (p, q), has an
explicit null-space basis instead: solve_reduced_kkt eliminates those
columns and factors the reduced Hessian, 2 N rows where the bordered
matrix has 6 N, by Cholesky.  Every region, ADMM and central step does.

solve_kkt factors with SuperLU whatever kind its blocks are: its systems,
the consensus QP and the multiplier refit of a Gauss-Newton solve stalled
at its rounding floor, are mostly zeros.  Elsewhere the kind of the input
picks the factorization; there is no size threshold.  Dense input is
factored densely (LU or Cholesky through LAPACK): the region steps and
the posterior bound's interior eliminations.  scipy.sparse input is
factored with SuperLU (COLAMD column ordering): the central step and the
Newton power flow, hundreds to thousands of rows under 1 % nonzero.

All dense level-2 and level-3 BLAS runs on scipy's OpenBLAS, through
gram and matvec below, never on numpy's matmul.  numpy and scipy each
bundle a threaded OpenBLAS whose workers keep spinning for a while after
a call, so alternating the two stalls both: on 2 vCPUs a 243x132 numpy
b.T @ b took 0.05 ms alone and 3.9 ms alternated with a scipy
lu_factor.  gram and matvec read a C-ordered operand through its
Fortran-ordered transpose, so f2py copies none, and a matrix-vector
product calls the kernel numpy's matmul calls on the same memory, so it
keeps numpy's bits.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg.blas import dgemm, dgemv

from .errors import DimensionMismatch, SingularKkt, SingularMatrix

# A pivot below PIVOT_RTOL times the largest absolute entry counts as zero.
PIVOT_RTOL = 1e-14
# Ridge added to the Hessian block when a KKT factorization fails.
RIDGE_SCALE = 1e-9


def _blas_operand(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(f, trans) with f Fortran-ordered and a = f, or a = f^T when trans
    is 1: a C-ordered a gives its own transposed view, so f2py copies
    neither kind.  Any other layout is copied once."""
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return np.asfortranarray(a), 0


def gram(a, alpha: float = 1.0):
    """alpha A^T A: scipy's dgemm for dense input, @ for scipy.sparse.

    dgemm, not the dsyrk that numpy's a.T @ a calls: between LAPACK
    factorizations it measured faster than dsyrk plus the triangle copy
    that fills its result.  On the package's sparse Jacobians each entry
    sums the same few nonzero products either way, so the bits are
    numpy's; on dense input the result can miss symmetry in the last bit.
    """
    if scipy.sparse.issparse(a):
        return alpha * (a.T @ a)
    f, trans = _blas_operand(np.asarray(a, dtype=float))
    return dgemm(alpha, f, f, trans_a=1 - trans, trans_b=trans)


def matvec(a, x, trans: bool = False):
    """A x, or A^T x when trans, for x a vector or the columns of a 2-D array.

    Dense input goes through scipy's dgemv (1-D x) or dgemm (2-D x) on
    the operands' own memory, as numpy's matmul passes it for a 1-D x, so
    a vector result has numpy's bits.  A 2-D result is Fortran-ordered.
    scipy.sparse input uses @, and x may then be scipy.sparse too.  Either
    kind raises DimensionMismatch when the inner sizes differ.
    """
    sparse = scipy.sparse.issparse(a)
    a = a if sparse else np.asarray(a, dtype=float)
    x = x if sparse and scipy.sparse.issparse(x) else np.asarray(x, dtype=float)
    if trans:
        a = a.T
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"cannot multiply a {a.shape} matrix by a {x.shape} operand")
    if sparse:
        return a @ x
    if a.size == 0 or x.size == 0:
        # The BLAS wrappers reject empty operands; the product is all zeros.
        return np.zeros(a.shape[:1] + x.shape[1:])
    f, f_trans = _blas_operand(a)
    if x.ndim == 1:
        return dgemv(1.0, f, x, trans=f_trans)
    g, g_trans = _blas_operand(x)
    return dgemm(1.0, f, g, trans_a=f_trans, trans_b=g_trans)


def solve_linear(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a square system: dense LU, or SparseFactor for scipy.sparse input.

    A dense matrix is factored with partially pivoted LU.  One step of
    iterative refinement keeps the backward error at
    norm(A x - rhs, inf) <= 1e-9 (1 + norm(rhs, inf)) for anything this
    package produces.

    Raises SingularMatrix when a pivot falls below PIVOT_RTOL times the
    largest absolute entry of the matrix (and as SparseFactor describes
    for sparse input).
    """
    sparse = scipy.sparse.issparse(matrix)
    a = scipy.sparse.csc_array(matrix, dtype=float) if sparse else np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix size {a.shape[0]}")
    if not (np.all(np.isfinite(a.data if sparse else a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    if sparse:
        return SparseFactor(a).solve(b)
    # LAPACK and BLAS read Fortran order; converting once here spares the
    # refinement product a copy.
    a = np.asfortranarray(a)
    scale = max(np.abs(a).max(), np.finfo(float).tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    if np.abs(np.diag(lu)).min() <= PIVOT_RTOL * scale:
        raise SingularMatrix("pivot below singularity threshold in LU factorization")
    x = scipy.linalg.lu_solve((lu, piv), b)
    x += scipy.linalg.lu_solve((lu, piv), b - matvec(a, x))
    return x


class _Factor:
    """Factor a square matrix once, then solve right-hand sides (a vector or
    a 2-D array's columns) with one step of iterative refinement each."""

    def __init__(self, matrix):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {matrix.shape}")
        self.matrix = matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix size {self.matrix.shape[0]}")
        x = self._solve_factored(b)
        x += self._solve_factored(b - matvec(self.matrix, x))
        return x


class CholeskyFactor(_Factor):
    """Cholesky factorization L L^T (LAPACK dpotrf, dpotrs) of a symmetric
    positive definite matrix, of which only the lower triangle is read.
    Raises SingularMatrix when dpotrf meets a pivot <= 0 or a pivot L_kk^2
    is at most PIVOT_RTOL times the largest absolute entry of the matrix."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(m := np.asarray(matrix, dtype=float))
        self._low, info = scipy.linalg.lapack.dpotrf(m, lower=1)
        tol = PIVOT_RTOL * max(_max_abs(m), np.finfo(float).tiny)
        if info != 0 or np.any(self._low.diagonal() ** 2 <= tol):
            raise SingularMatrix("matrix is not numerically positive definite in Cholesky factorization")

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lapack.dpotrs(self._low, rhs, lower=1)[0]


class SparseFactor(_Factor):
    """Sparse LU factorization (SuperLU, COLAMD column ordering).

    Raises SingularMatrix when the matrix is structurally singular (its
    stored pattern admits no nonzero diagonal under any row permutation),
    when SuperLU meets an exactly zero pivot, or when a diagonal entry of U
    falls below PIVOT_RTOL times the largest absolute entry of the matrix.
    The structural verdict is cached per exact pattern (_full_structural_rank).
    """

    def __init__(self, matrix):
        super().__init__(m := scipy.sparse.csc_array(matrix, dtype=float))
        m.sum_duplicates()
        scale = max(_max_abs(m), np.finfo(float).tiny)
        # SuperLU is not memory safe on a structurally singular matrix: a
        # column with no candidate pivot row can abort the factorization
        # mid-way or crash the process.  Such a matrix is singular for any
        # values, so it never reaches SuperLU.
        if not _full_structural_rank(_Pattern(m)):
            raise SingularMatrix("structurally singular matrix")
        try:
            self._lu = scipy.sparse.linalg.splu(m, permc_spec="COLAMD")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(f"sparse LU factorization failed: {exc}") from exc
        if np.abs(self._lu.U.diagonal()).min(initial=np.inf) <= PIVOT_RTOL * scale:
            raise SingularMatrix("pivot below singularity threshold in sparse LU factorization")

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


class _Pattern:
    """The stored pattern of a compressed sparse matrix as a cache key.

    Equal only to a pattern with the same shape, indptr and indices, entry
    for entry: the verdict it keys guards SuperLU's memory safety, so a
    hash collision must never pass for a hit.  It holds copies, so a caller
    that later writes into its matrix cannot change a cached pattern.
    """

    __slots__ = ("shape", "indptr", "indices")

    def __init__(self, m):
        self.shape = m.shape
        self.indptr = m.indptr.copy()
        self.indices = m.indices.copy()

    def __hash__(self) -> int:
        return hash((self.shape, len(self.indices)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, _Pattern) and self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


@functools.lru_cache(maxsize=8)
def _full_structural_rank(pattern: _Pattern) -> bool:
    """Whether a square pattern's structural rank is its size.

    A run factors the same few patterns over and over (the Newton matrix,
    the consensus KKT, the central step), and the bipartite matching costs
    milliseconds on thousands of rows, so the last few verdicts are kept.
    Structural rank counts stored entries, explicit zeros included, and a
    pattern's transpose has the same rank, so the CSC arrays are read as
    CSR with no conversion.
    """
    transposed = scipy.sparse.csr_array(
        (np.ones(len(pattern.indices)), pattern.indices, pattern.indptr), shape=pattern.shape[::-1]
    )
    return scipy.sparse.csgraph.structural_rank(transposed) == pattern.shape[0]


def _max_abs(a) -> float:
    """Largest absolute entry of a dense array or a scipy.sparse matrix (0 if empty)."""
    values = a.data if scipy.sparse.issparse(a) else a
    return float(np.abs(values).max(initial=0.0))


def _as_block(a):
    """A KKT block as float: a dense array, or CSR when it arrives as scipy.sparse."""
    if scipy.sparse.issparse(a):
        out = scipy.sparse.csr_array(a, dtype=float)
        out.sum_duplicates()
        return out
    return np.asarray(a, dtype=float)


@dataclass(frozen=True)
class KktSystem:
    """One equality-constrained quadratic subproblem.

        [ H  J^T ] [ step ]   [ -gradient ]
        [ J   0  ] [ mult ] = [ -residual ]

    hessian must be symmetric (checked to 1e-12 relative); the constraint
    block may be empty (zero rows).  Either block may be dense or
    scipy.sparse, which is kept as CSR.
    """

    hessian: np.ndarray | scipy.sparse.sparray
    constraint_jacobian: np.ndarray | scipy.sparse.sparray
    gradient: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        h = _as_block(self.hessian)
        j = _as_block(self.constraint_jacobian)
        g = np.asarray(self.gradient, dtype=float)
        r = np.asarray(self.residual, dtype=float)
        object.__setattr__(self, "hessian", h)
        object.__setattr__(self, "constraint_jacobian", j)
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "residual", r)
        n = h.shape[0]
        if h.ndim != 2 or h.shape[1] != n:
            raise DimensionMismatch(f"hessian must be square, got {h.shape}")
        if j.ndim != 2 or j.shape[1] != n:
            raise DimensionMismatch(f"constraint jacobian {j.shape} does not match state size {n}")
        if g.shape != (n,):
            raise DimensionMismatch(f"gradient shape {g.shape} does not match state size {n}")
        if r.shape != (j.shape[0],):
            raise DimensionMismatch(f"residual shape {r.shape} does not match constraint count {j.shape[0]}")
        for name, arr in (("hessian", h), ("constraint jacobian", j), ("gradient", g), ("residual", r)):
            if not np.all(np.isfinite(arr.data if scipy.sparse.issparse(arr) else arr)):
                raise ValueError(f"non-finite entries in {name}")
        if _max_abs(h - h.T) > 1e-12 * (1.0 + _max_abs(h)):
            raise ValueError("hessian is not symmetric")

    @property
    def n_states(self) -> int:
        return self.hessian.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.constraint_jacobian.shape[0]


@dataclass
class KktSolution:
    step: np.ndarray
    multipliers: np.ndarray
    regularized: bool = field(default=False)


def bordered_matrix(hessian, constraint_jacobian):
    """[[H, J^T], [J, 0]]: dense, or CSC when either block is scipy.sparse."""
    if scipy.sparse.issparse(hessian) or scipy.sparse.issparse(constraint_jacobian):
        return scipy.sparse.block_array(
            [[hessian, constraint_jacobian.T], [constraint_jacobian, None]], format="csc"
        )
    n = hessian.shape[0]
    m = constraint_jacobian.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = hessian
    out[:n, n:] = constraint_jacobian.T
    out[n:, :n] = constraint_jacobian
    return out


def plus_diagonal(m, d):
    """m + diag(d), d a scalar or a vector, as a new matrix of m's kind."""
    d = np.broadcast_to(d, m.shape[:1])
    return m + (scipy.sparse.diags_array(d) if scipy.sparse.issparse(m) else np.diag(d))


def _with_ridge(attempt, hessian_diagonal):
    """(attempt(0.0), False), or on SingularMatrix (attempt(delta), True)
    after a warning; attempt(ridge) adds ridge to the diagonal of the
    Hessian H, delta = RIDGE_SCALE (1 + max |diag H|).  A retry that
    raises SingularMatrix too raises SingularKkt."""
    try:
        return attempt(0.0), False
    except SingularMatrix:
        delta = RIDGE_SCALE * (1.0 + np.abs(hessian_diagonal()).max(initial=0.0))
        warnings.warn(f"KKT factorization failed, retrying with ridge {delta:.3e} on the Hessian block")
        try:
            return attempt(delta), True
        except SingularMatrix as exc:
            raise SingularKkt("KKT system singular even after ridge regularization") from exc


def solve_kkt(system: KktSystem) -> KktSolution:
    """Solve one KKT system by factoring the full bordered matrix with
    SparseFactor, whatever kind its blocks are.

    A singular factor gets one retry with a ridge on the Hessian block and
    a warning (_with_ridge); a system that stays singular raises
    SingularKkt.  Post-conditions (for the unridged solve): the
    stationarity and feasibility residuals of the returned solution are
    below 1e-8 in the infinity norm.
    """
    def factor(ridge: float):
        hessian = plus_diagonal(system.hessian, ridge) if ridge else system.hessian
        return SparseFactor(bordered_matrix(hessian, system.constraint_jacobian))

    factored, regularized = _with_ridge(factor, system.hessian.diagonal)
    sol = factored.solve(np.concatenate([-system.gradient, -system.residual]))
    return KktSolution(step=sol[:system.n_states], multipliers=sol[system.n_states:], regularized=regularized)


def solve_reduced_kkt(jacobian, constraint_jacobian, identity_columns, shift, gradient, residual) -> KktSolution:
    """solve_kkt's solution for H = 2 B^T B + diag(shift), B the jacobian, and
    a constraint Jacobian C whose column identity_columns[r] is unit vector r.

    With those columns w and the others u, C = [C_u | I]: Z = [I; -C_u]
    spans its null space and d0 = (0, -residual) meets C d0 = -residual
    (the null-space method; Nocedal and Wright, Numerical Optimization,
    2nd ed., 16.2).  The step is d = d0 + Z du, where

        Z^T H Z du = -Z^T (gradient + H d0),
        Z^T H Z = 2 (BZ)^T (BZ) + diag(shift_u) + C_u^T diag(shift_w) C_u,

    BZ = B_u - B_w C_u; neither Z nor H is formed.  The multipliers are
    kappa = -(H d + gradient)_w.  Both Jacobians are dense or both
    scipy.sparse, and the kind picks the factor of Z^T H Z (positive
    semidefinite for shift >= 0): CholeskyFactor or SparseFactor.  A
    singular one gets solve_kkt's ridge retry, the ridge added to shift.
    """
    sparse = scipy.sparse.issparse(jacobian)
    b, c = (scipy.sparse.csc_array(a, dtype=float) if sparse else np.asarray(a, dtype=float)
            for a in (jacobian, constraint_jacobian))
    g, h, shift = (np.asarray(a, dtype=float) for a in (gradient, residual, shift))
    w = np.asarray(identity_columns, dtype=np.intp)
    if not g.shape == shift.shape == (b.shape[1],) or not h.shape == w.shape == (c.shape[0],):
        raise DimensionMismatch("gradient, shift, residual or identity columns do not fit the Jacobians")
    if not all(np.all(np.isfinite(a.data if scipy.sparse.issparse(a) else a)) for a in (b, c, g, h, shift)):
        raise ValueError("non-finite entries in the Gauss-Newton system")
    u = np.flatnonzero(np.bincount(w, minlength=len(g)) == 0)
    b_w, c_u = b[:, w], c[:, u]
    bz = b[:, u] - matvec(b_w, c_u)
    fit = gram(bz, 2.0)
    rhs_fit = 2.0 * matvec(bz, matvec(b_w, h), trans=True) - g[u]

    def attempt(ridge: float):
        s = shift + ridge
        reduced = plus_diagonal(fit + matvec(c_u, c_u * s[w][:, None], trans=True), s[u])
        factor = SparseFactor(reduced) if sparse else CholeskyFactor(reduced)
        step = np.empty(len(g))
        step[u] = factor.solve(rhs_fit + matvec(c_u, g[w] - s[w] * h, trans=True))
        step[w] = -h - matvec(c_u, step[u])
        return step, -(2.0 * matvec(b_w, matvec(b, step), trans=True) + s[w] * step[w] + g[w])

    (step, kappa), regularized = _with_ridge(
        attempt, lambda: 2.0 * np.asarray((b.multiply(b) if sparse else b * b).sum(axis=0)).ravel() + shift
    )
    return KktSolution(step=step, multipliers=kappa, regularized=regularized)
