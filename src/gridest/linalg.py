"""Direct solvers used everywhere else in the package.

Square general systems go through partially pivoted LU.  KKT systems are
symmetric but indefinite, which rules out Cholesky; they are factored once
as a whole bordered matrix (no Schur complement, so no assumption that the
Hessian block alone is invertible).

The kind of the input picks the factorization, for both solve_linear and
solve_kkt; there is no size threshold.  Dense input is factored densely:
LU for a square system, Bunch-Kaufman LDL^T (LAPACK dsytrf) for a KKT
system, O(n^3).  That serves the region Gauss-Newton steps: a region
system has 72-220 bordered rows and is 4-10 % nonzero, where SuperLU
measured 2-4x slower than dense LDL^T, and the dense solves of the
posterior bound, which eliminates each region's interior with dense LU.
scipy.sparse input is factored with sparse LU (SuperLU, COLAMD column
ordering).  That serves the consensus QP (block diagonal plus a thin
coupling border), the central Gauss-Newton step and the Newton power flow
(the network's own sparsity).  They have hundreds to thousands of rows and
are well under 1 % nonzero, so their cost follows the fill of the factors
instead of n^3.

All dense level-2 and level-3 BLAS runs on scipy's OpenBLAS
(scipy.linalg.blas, through gram and matvec below), never on numpy's
matmul.  numpy and scipy each bundle a threaded OpenBLAS whose worker
threads keep spinning for a while after a call, so alternating between
the two stalls both: on 2 vCPUs a 243x132 numpy b.T @ b takes 0.05 ms
alone and 3.9 ms when alternated with a 180x180 scipy lu_factor.  Every
region Gauss-Newton step and the posterior bound alternate products with
LAPACK calls; with all of them on scipy's BLAS, the 480-bus benchmark
pass (pipeline_s) fell from 0.319 s to 0.226 s, most of it in the
posterior bound (0.128 s to 0.053 s).  gram and matvec read a
C-ordered operand through its Fortran-ordered transpose, so f2py copies
none, and a matrix-vector product calls the kernel numpy's matmul calls
on the same memory, so it keeps numpy's bits.
"""

from __future__ import annotations

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
# Ridge added to the Hessian block when the bordered factorization fails.
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

    dgemm, not the dsyrk that numpy's a.T @ a calls: on a region Jacobian
    (243 x 144, 1 % nonzero) between dsytrf calls, as in a region step,
    product and factor took 221-246 us with dgemm and 282 us with dsyrk
    plus the triangle copy that fills its result.  On such sparse
    Jacobians each entry sums the same few nonzero products either way,
    so the bits are numpy's.  On dense input the result can miss exact
    symmetry in the last bit.
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
    scipy.sparse input uses @.
    """
    if scipy.sparse.issparse(a):
        return (a.T if trans else a) @ x
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if trans:
        a = a.T
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"cannot multiply a {a.shape} matrix by a {x.shape} operand")
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


class SymmetricFactor:
    """Bunch-Kaufman LDL^T factorization of a symmetric indefinite matrix.

    LAPACK dsytrf factors, dsytrs solves.  Factor once, solve many
    right-hand sides (a vector or the columns of a 2-D array); solve()
    applies one step of iterative refinement against the retained matrix.
    Raises SingularMatrix when a 1x1 pivot, or the smaller eigenvalue in
    magnitude of a 2x2 pivot block, is at most PIVOT_RTOL times the largest
    absolute entry of the matrix.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        self.matrix = m
        n = m.shape[0]
        # Without the workspace query dsytrf gets lwork = n and falls back
        # to the unblocked dsytf2, several times slower at a few hundred rows.
        lwork, _ = scipy.linalg.lapack.dsytrf_lwork(n, lower=1)
        self._ldu, self._ipiv, info = scipy.linalg.lapack.dsytrf(m, lower=1, lwork=max(int(lwork), 1))
        if info > 0:
            raise SingularMatrix("zero pivot in LDL^T factorization")
        tol = PIVOT_RTOL * max(np.abs(m).max(initial=0.0), np.finfo(float).tiny)
        # A negative ipiv entry marks a row of a 2x2 block of D; a block takes
        # two consecutive negative entries, so each run of them splits into
        # pairs from its start.
        d = self._ldu.diagonal()
        pos = np.arange(n)
        two = self._ipiv < 0
        run_start = np.maximum.accumulate(np.where(two, 0, pos + 1))
        first = np.flatnonzero(two & ((pos - run_start) % 2 == 0))
        if np.any(np.abs(d[~two]) <= tol):
            raise SingularMatrix("zero pivot in LDL^T factorization")
        a, b, c = d[first], self._ldu[first + 1, first], d[first + 1]
        half_tr = 0.5 * (a + c)
        disc = np.hypot(0.5 * (a - c), b)
        if np.any(np.minimum(np.abs(half_tr - disc), np.abs(half_tr + disc)) <= tol):
            raise SingularMatrix("singular 2x2 pivot block in LDL^T factorization")

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lapack.dsytrs(self._ldu, self._ipiv, rhs, lower=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix size {self.matrix.shape[0]}")
        x = self._solve_factored(b)
        x += self._solve_factored(b - matvec(self.matrix, x))
        return x


class SparseFactor:
    """Sparse LU factorization (SuperLU, COLAMD column ordering).

    Same contract as SymmetricFactor: factor once, solve many right-hand
    sides (a vector or the columns of a dense 2-D array), one step of
    iterative refinement against the retained matrix.  Raises SingularMatrix
    when the matrix is structurally singular (its stored pattern admits no
    nonzero diagonal under any row permutation), when SuperLU meets an
    exactly zero pivot, or when a diagonal entry of U falls below PIVOT_RTOL
    times the largest absolute entry of the matrix.
    """

    def __init__(self, matrix):
        m = scipy.sparse.csc_array(matrix, dtype=float)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        m.sum_duplicates()
        self.matrix = m
        scale = max(_max_abs(m), np.finfo(float).tiny)
        # SuperLU is not memory safe on a structurally singular matrix: a
        # column with no candidate pivot row can abort the factorization
        # mid-way or crash the process.  Such a matrix is singular for any
        # values, so it never reaches SuperLU.
        if scipy.sparse.csgraph.structural_rank(m.tocsr()) < m.shape[0]:
            raise SingularMatrix("structurally singular matrix")
        try:
            self._lu = scipy.sparse.linalg.splu(m, permc_spec="COLAMD")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(f"sparse LU factorization failed: {exc}") from exc
        if np.abs(self._lu.U.diagonal()).min(initial=np.inf) <= PIVOT_RTOL * scale:
            raise SingularMatrix("pivot below singularity threshold in sparse LU factorization")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix size {self.matrix.shape[0]}")
        x = self._lu.solve(b)
        x += self._lu.solve(b - self.matrix @ x)
        return x


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
    block may be empty (zero rows).  Either block may be a scipy.sparse
    matrix, which is kept as CSR; solve_kkt then factors the bordered
    matrix sparsely.
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


def stack_region_blocks(hessians, constraint_jacobians, couplings=None):
    """Sparse blocks of a KKT system that spans every region.

    Returns H = diag(H_1, ..., H_N) and J = [diag(C_1, ..., C_N); A_1 ... A_N]
    in CSR form, without the coupling rows when couplings is None.  Exact
    zeros of the dense region blocks are not stored.
    """

    def sparse(blocks):
        return [scipy.sparse.coo_array(np.asarray(b, dtype=float)) for b in blocks]

    hessian = scipy.sparse.block_diag(sparse(hessians), format="csr")
    rows = [scipy.sparse.block_diag(sparse(constraint_jacobians))]
    if couplings is not None:
        rows.append(scipy.sparse.hstack(sparse(couplings)))
    return hessian, scipy.sparse.vstack(rows, format="csr")


def _factor_bordered(hessian, constraint_jacobian):
    matrix = bordered_matrix(hessian, constraint_jacobian)
    return SparseFactor(matrix) if scipy.sparse.issparse(matrix) else SymmetricFactor(matrix)


def solve_kkt(system: KktSystem) -> KktSolution:
    """Solve one KKT system by factoring the full bordered matrix.

    Dense blocks are factored with SymmetricFactor, scipy.sparse blocks
    with SparseFactor.  If the factorization hits a singular pivot, a ridge
    delta = RIDGE_SCALE (1 + max |diag H|) is added to the Hessian block
    only, a warning is emitted, and the solve is retried once.  A system
    that stays singular raises SingularKkt.

    Post-conditions (for the unridged solve): the stationarity and
    feasibility residuals of the returned solution are below 1e-8 in the
    infinity norm.
    """
    n = system.n_states
    rhs = np.concatenate([-system.gradient, -system.residual])
    regularized = False
    try:
        factor = _factor_bordered(system.hessian, system.constraint_jacobian)
    except SingularMatrix:
        delta = RIDGE_SCALE * (1.0 + np.abs(system.hessian.diagonal()).max(initial=0.0))
        warnings.warn(f"KKT factorization failed, retrying with ridge {delta:.3e} on the Hessian block")
        eye = scipy.sparse.eye_array(n) if scipy.sparse.issparse(system.hessian) else np.eye(n)
        regularized = True
        try:
            factor = _factor_bordered(system.hessian + delta * eye, system.constraint_jacobian)
        except SingularMatrix as exc:
            raise SingularKkt("KKT system singular even after ridge regularization") from exc
    sol = factor.solve(rhs)
    return KktSolution(step=sol[:n], multipliers=sol[n:], regularized=regularized)
