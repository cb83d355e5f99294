"""Direct solvers used everywhere else in the package.

Every factorization is a _Factor: it factors a square matrix once, then
solves right-hand sides with one step of iterative refinement each.
Which factor serves which caller:

* LuFactor, partially pivoted dense LU: solve_linear on dense input (the
  multiplier refit of local_solver on dense C, which is one region's C in
  a region batch), the posterior bound's interior eliminations and its
  boundary system in shared unknowns, which has no rows on a one-region
  partition (a 0 x 0 matrix factors and solves to an empty result).
* SparseFactor, SuperLU with COLAMD column ordering, for scipy.sparse
  input: solve_linear (the Newton power flow, the multiplier refit on
  sparse C), solve_reduced_kkt and solve_kkt.
  A Gauss-Newton KKT system whose constraint Jacobian is the identity on
  some columns, as the power-flow rows are on each node's (p, q), has an
  explicit null-space basis: solve_reduced_kkt eliminates those columns
  and factors the reduced Hessian, 2 N rows where the bordered matrix has
  6 N (none when every column is an identity column).  It takes every
  Gauss-Newton step of the package: the central step and every region
  batch of the ALADIN and ADMM loops, hundreds to thousands of rows under
  1 % nonzero, block diagonal for a batch.  It keeps a _ReducedPlan per
  Jacobian pattern, so each step refills the reduced matrix from the
  Jacobians' data arrays and calls SuperLU once.
  solve_kkt factors the whole bordered matrix, symmetric but indefinite,
  with no assumption that the Hessian block alone is invertible; its one
  caller in the package is the consensus QP, which is mostly zeros, so
  KktSystem keeps both blocks as CSR.

The kind of solve_linear's input picks its factor; there is no size
threshold.

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
    """Solve a square system: LuFactor for dense input, SparseFactor for
    scipy.sparse input.

    The factor's refinement step keeps the backward error at
    norm(A x - rhs, inf) <= 1e-9 (1 + norm(rhs, inf)) for anything this
    package produces.  Raises ValueError on non-finite entries,
    DimensionMismatch on a non-square matrix or an rhs of the wrong
    length, and SingularMatrix as the factor describes.
    """
    sparse = scipy.sparse.issparse(matrix)
    a = scipy.sparse.csc_array(matrix, dtype=float) if sparse else np.asarray(matrix, dtype=float)
    if not (np.all(np.isfinite(a.data if sparse else a)) and np.all(np.isfinite(rhs))):
        raise ValueError("non-finite entries in linear system")
    return (SparseFactor if sparse else LuFactor)(a).solve(rhs)


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


class LuFactor(_Factor):
    """Partially pivoted LU factorization (LAPACK dgetrf, dgetrs) of a dense
    matrix, held in Fortran order so that neither LAPACK nor the refinement
    product copies it.  Raises SingularMatrix when a pivot falls below
    PIVOT_RTOL times the largest absolute entry of the matrix."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(m := np.asfortranarray(matrix, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu = scipy.linalg.lu_factor(m)
        if np.abs(np.diag(self._lu[0])).min(initial=np.inf) <= PIVOT_RTOL * max(_max_abs(m), np.finfo(float).tiny):
            raise SingularMatrix("pivot below singularity threshold in LU factorization")

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve(self._lu, rhs)


class SparseFactor(_Factor):
    """Sparse LU factorization (SuperLU, COLAMD column ordering) of a
    scipy.sparse matrix of any format, converted to CSC.

    Raises SingularMatrix when the matrix is structurally singular (its
    stored pattern admits no nonzero diagonal under any row permutation),
    when SuperLU meets an exactly zero pivot, or when a diagonal entry of U
    falls below PIVOT_RTOL times the largest absolute entry of the matrix.
    The structural verdict is cached per exact pattern, keyed on the bytes
    of indptr and indices (_full_structural_rank).
    """

    def __init__(self, matrix):
        super().__init__(m := scipy.sparse.csc_array(matrix, dtype=float))
        m.sum_duplicates()
        scale = max(_max_abs(m), np.finfo(float).tiny)
        # SuperLU is not memory safe on a structurally singular matrix: a
        # column with no candidate pivot row can abort the factorization
        # mid-way or crash the process.  Such a matrix is singular for any
        # values, so it never reaches SuperLU.
        if not _full_structural_rank(m.shape, m.indices.dtype.str, m.indptr.tobytes(), m.indices.tobytes()):
            raise SingularMatrix("structurally singular matrix")
        try:
            self._lu = scipy.sparse.linalg.splu(m, permc_spec="COLAMD")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrix(f"sparse LU factorization failed: {exc}") from exc
        if np.abs(self._lu.U.diagonal()).min(initial=np.inf) <= PIVOT_RTOL * scale:
            raise SingularMatrix("pivot below singularity threshold in sparse LU factorization")

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@functools.lru_cache(maxsize=8)
def _full_structural_rank(shape: tuple[int, int], index_dtype: str, indptr: bytes, indices: bytes) -> bool:
    """Whether a square CSC pattern's structural rank is its size.

    A run factors the same few patterns over and over (the Newton matrix,
    the consensus KKT, the central step), and the bipartite matching costs
    milliseconds on thousands of rows, so the last few verdicts are kept.
    The key is the pattern's bytes: the verdict guards SuperLU's memory
    safety, so a hit needs them equal, not just their hash, and being
    copies, they do not change when the caller later writes into its
    matrix.  Structural rank counts stored entries, explicit zeros
    included, and a pattern's transpose has the same rank, so the CSC
    arrays are read as CSR with no conversion.
    """
    indptr, indices = (np.frombuffer(a, dtype=index_dtype) for a in (indptr, indices))
    transposed = scipy.sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=shape[::-1])
    return scipy.sparse.csgraph.structural_rank(transposed) == shape[0]


def _max_abs(a) -> float:
    """Largest absolute entry of a dense array or a scipy.sparse matrix (0 if empty)."""
    values = a.data if scipy.sparse.issparse(a) else a
    return float(np.abs(values).max(initial=0.0))


@dataclass(frozen=True)
class KktSystem:
    """One equality-constrained quadratic subproblem.

        [ H  J^T ] [ step ]   [ -gradient ]
        [ J   0  ] [ mult ] = [ -residual ]

    hessian must be symmetric (checked to 1e-12 relative); the constraint
    block may be empty (zero rows).  Either block may arrive dense or
    scipy.sparse; both are kept as CSR, since solve_kkt factors sparse.
    """

    hessian: scipy.sparse.csr_array
    constraint_jacobian: scipy.sparse.csr_array
    gradient: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        h, j = (scipy.sparse.csr_array(a, dtype=float) for a in (self.hessian, self.constraint_jacobian))
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
        for name, arr in (("hessian", h.data), ("constraint jacobian", j.data), ("gradient", g), ("residual", r)):
            if not np.all(np.isfinite(arr)):
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
    """Solve one KKT system by factoring the full bordered matrix, CSC
    from the CSR blocks, with SparseFactor.

    A singular factor gets one retry with a ridge on the Hessian block and
    a warning (_with_ridge); a system that stays singular raises
    SingularKkt.  Post-conditions (for the unridged solve): the
    stationarity and feasibility residuals of the returned solution are
    below 1e-8 in the infinity norm.
    """
    def factor(ridge: float):
        hessian = system.hessian + ridge * scipy.sparse.eye_array(system.n_states) if ridge else system.hessian
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
    kappa = -(H d + gradient)_w.  Either Jacobian may be dense or
    scipy.sparse; both are read as canonical CSR through their pattern's
    _ReducedPlan, so a step touches only their data arrays, and
    SparseFactor factors Z^T H Z (positive semidefinite for shift >= 0).
    A singular factor gets solve_kkt's ridge retry, the ridge added to
    shift.
    """
    b, c = _canonical_csr(jacobian), _canonical_csr(constraint_jacobian)
    g, h, shift = (np.asarray(a, dtype=float) for a in (gradient, residual, shift))
    w = np.asarray(identity_columns, dtype=np.intp)
    if not g.shape == shift.shape == (b.shape[1],) or not h.shape == w.shape == (c.shape[0],):
        raise DimensionMismatch("gradient, shift, residual or identity columns do not fit the Jacobians")
    if not all(np.all(np.isfinite(a)) for a in (b.data, c.data, g, h, shift)):
        raise ValueError("non-finite entries in the Gauss-Newton system")
    plan = _reduced_plan(b.shape, c.shape, _pattern_bytes(b), _pattern_bytes(c), w.tobytes())
    (step, kappa), regularized = _with_ridge(
        lambda ridge: plan.solve(b.data, c.data, shift + ridge, g, h), lambda: plan.hessian_diagonal(b.data, shift)
    )
    return KktSolution(step=step, multipliers=kappa, regularized=regularized)


def _canonical_csr(a) -> scipy.sparse.csr_array:
    """a, dense or scipy.sparse, as a CSR array with sorted indices and no
    duplicates, a itself left as it is."""
    m = scipy.sparse.csr_array(a, dtype=float)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return m


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated aranges starts[k] .. starts[k] + counts[k] - 1."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _row_pairs(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): every pair of entries a <= b that share a row of a CSR pattern."""
    entries = np.arange(indptr[-1])
    per_entry = np.repeat(indptr[1:], np.diff(indptr)) - entries
    return np.repeat(entries, per_entry), _ranges(entries, per_entry)


class _ReducedPlan:
    """The symbolic half of solve_reduced_kkt: where each entry of BZ and
    of Z^T H Z comes from, for one pattern of the canonical CSR B (m x n)
    and C (r x n) and one set of identity columns w.  solve() then needs
    only the values: each product is a gather and each sum an np.bincount
    over fixed slots (the symbolic and numeric phases of a sparse direct
    solver; Davis, Direct Methods for Sparse Linear Systems, SIAM 2006,
    ch. 4-6).

    BZ = B_u - B_w C_u holds the B_u entries and the product of every B_w
    entry with each C_u entry of the row of C its column selects.  The
    upper triangle of Z^T H Z holds the products of every same-row pair of
    BZ entries, of every same-row pair of C_u entries, and the diagonal;
    mirror copies it into the whole symmetric matrix, as CSC.
    """

    def __init__(self, b_shape, c_shape, b_indptr, b_indices, c_indptr, c_indices, w):
        (m, n), r = b_shape, c_shape[0]
        self.m, self.n, self.w = m, n, w
        self.u = np.flatnonzero(np.bincount(w, minlength=n) == 0)
        nu = self.nu = len(self.u)
        k_of = np.full(n, -1)
        k_of[w] = np.arange(r)
        pos = np.full(n, -1)
        pos[self.u] = np.arange(nu)
        self.b_rows, self.b_cols = np.repeat(np.arange(m), np.diff(b_indptr)), b_indices.astype(np.intp)
        in_w = k_of[self.b_cols] >= 0
        self.bw, bu = np.flatnonzero(in_w), np.flatnonzero(~in_w)
        self.bw_rows, self.bw_k = self.b_rows[self.bw], k_of[self.b_cols[self.bw]]
        c_rows = np.repeat(np.arange(r), np.diff(c_indptr))
        self.cu = np.flatnonzero(pos[c_indices] >= 0)
        self.cu_rows, self.cu_cols = c_rows[self.cu], pos[c_indices[self.cu]]
        cu_ptr = np.concatenate(([0], np.cumsum(np.bincount(self.cu_rows, minlength=r))))
        counts = np.diff(cu_ptr)[self.bw_k]
        self.prod_b, self.prod_c = np.repeat(self.bw, counts), _ranges(cu_ptr[self.bw_k], counts)
        # BZ, row-major with sorted columns: the slots of its direct and
        # product terms.
        keys, slot = np.unique(
            np.concatenate((self.b_rows[bu] * nu + pos[self.b_cols[bu]],
                            self.b_rows[self.prod_b] * nu + self.cu_cols[self.prod_c])),
            return_inverse=True,
        )
        self.bu, self.direct_slot, self.prod_slot = bu, slot[:len(bu)], slot[len(bu):]
        self.nbz = len(keys)
        self.bz_rows, self.bz_cols = np.divmod(keys, nu)
        self.fit_a, self.fit_b = _row_pairs(np.searchsorted(self.bz_rows, np.arange(m + 1)))
        self.cw_a, self.cw_b = _row_pairs(cu_ptr)
        self.cw_k = self.cu_rows[self.cw_a]
        # The upper triangle of Z^T H Z, column-major: the slots of the fit
        # pairs, the C_u pairs and the diagonal, in that order.
        upper, self.slot = np.unique(
            np.concatenate((self.bz_cols[self.fit_b] * nu + self.bz_cols[self.fit_a],
                            self.cu_cols[self.cw_b] * nu + self.cu_cols[self.cw_a],
                            np.arange(nu) * (nu + 1))),
            return_inverse=True,
        )
        self.n_upper = len(upper)
        cols, rows = np.divmod(upper, nu)
        strict = np.flatnonzero(rows < cols)
        keys = np.concatenate((upper, rows[strict] * nu + cols[strict]))
        order = np.argsort(keys)
        self.mirror = np.concatenate((np.arange(len(upper)), strict))[order]
        cols, rows = np.divmod(keys[order], nu)
        # SuperLU reads 32-bit indices; stored so, they are not copied per step.
        index_dtype = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.intp
        self.indices = rows.astype(index_dtype)
        self.indptr = np.searchsorted(cols, np.arange(nu + 1)).astype(index_dtype)

    def hessian_diagonal(self, b_data, shift):
        return 2.0 * np.bincount(self.b_cols, b_data * b_data, minlength=self.n) + shift

    def solve(self, b_data, c_data, s, g, h):
        """(step, kappa) of solve_reduced_kkt for these values."""
        u, w = self.u, self.w
        cu = c_data[self.cu]
        # bincount over no entries is int64 even with weights; the float
        # factor keeps bz float when B_w C_u has no product term.
        bz = -1.0 * np.bincount(self.prod_slot, b_data[self.prod_b] * cu[self.prod_c], minlength=self.nbz)
        bz[self.direct_slot] += b_data[self.bu]
        s_w = s[w]
        upper = np.bincount(self.slot, np.concatenate((2.0 * bz[self.fit_a] * bz[self.fit_b],
                                                       s_w[self.cw_k] * cu[self.cw_a] * cu[self.cw_b], s[u])),
                            minlength=self.n_upper)
        reduced = scipy.sparse.csc_array((upper[self.mirror], self.indices, self.indptr), shape=(self.nu, self.nu))
        b_w_h = np.bincount(self.bw_rows, b_data[self.bw] * h[self.bw_k], minlength=self.m)
        rhs = (2.0 * np.bincount(self.bz_cols, bz * b_w_h[self.bz_rows], minlength=self.nu) - g[u]
               + np.bincount(self.cu_cols, cu * (g[w] - s_w * h)[self.cu_rows], minlength=self.nu))
        step = np.empty(self.n)
        step[u] = du = SparseFactor(reduced).solve(rhs)
        step[w] = -h - np.bincount(self.cu_rows, cu * du[self.cu_cols], minlength=len(w))
        b_step = np.bincount(self.b_rows, b_data * step[self.b_cols], minlength=self.m)
        b_w_t = np.bincount(self.bw_k, b_data[self.bw] * b_step[self.bw_rows], minlength=len(w))
        return step, -(2.0 * b_w_t + s_w * step[w] + g[w])


def _pattern_bytes(m) -> tuple[str, bytes, bytes]:
    """A compressed sparse pattern as (index dtype, indptr bytes, indices bytes)."""
    return m.indices.dtype.str, m.indptr.tobytes(), m.indices.tobytes()


@functools.lru_cache(maxsize=8)
def _reduced_plan(b_shape, c_shape, b_pattern, c_pattern, w) -> _ReducedPlan:
    """The _ReducedPlan of one pattern, the last few kept: a central solve
    meets the same pattern at every step.  The key is the patterns' bytes,
    copies that a later write into the caller's matrices cannot reach."""
    def arrays(pattern):
        dtype, indptr, indices = pattern
        return np.frombuffer(indptr, dtype=dtype), np.frombuffer(indices, dtype=dtype)

    return _ReducedPlan(b_shape, c_shape, *arrays(b_pattern), *arrays(c_pattern), np.frombuffer(w, dtype=np.intp))
