"""Coupled consensus step of the distributed estimator.

The coordinator receives the regions' Gauss-Newton sensitivities and
solves one coupled equality-constrained QP over all region steps:

    min   sum_i ||B_i dy_i||^2 + 2 dy_i^T (B_i^T b_i)
    s.t.  sum_i A_i (y_i + dy_i) = 0        (consensus, multiplier lam)
          C_i dy_i = 0 for every region     (linearized physics)

The QP keeps each step inside the tangent space of its region's power flow
manifold while restoring consensus across the auxiliary pairs.  It is
solved as a single bordered KKT factorization; if the Gauss-Newton Hessian
is singular on the constraint null space the ridge fallback of the linear
algebra kernel engages and the solution is flagged as regularized.

The bordered matrix spans every region: block diagonal in the region
Hessians and physics Jacobians, plus the thin coupling border [A_1 ... A_N].
On a 16-region 480-bus grid it has 3600 rows and about 0.2 % nonzeros, so
it is never a dense zero-filled matrix: the block diagonals are the
uploads' CSR arrays concatenated (linalg.stack_csr), with their column
indices and indptr shifted, the border is the A_i stacked side by side as
CSR, and the kernel factors the whole with sparse LU.  The ALADIN loop
uploads CSR blocks, whose stored entries are kept, explicit zeros
included; a dense upload works too and is read without its exact zeros.

An upload need not be one region's: one that carries several regions as
diagonal blocks of its matrices, with the coupling columns of all of them,
poses the same QP.  aladin.run_aladin sends its whole region batch as one
such upload, with the stacked border [A_1 ... A_N] as its coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .errors import DimensionMismatch


@dataclass(frozen=True)
class SensitivityUpload:
    """Sensitivities sent to the coordinator each outer iteration.

    fit_hessian is B_i^T B_i (transmitted packed, it is symmetric),
    fit_gradient is B_i^T b_i, constraint_jacobian is C_i evaluated at the
    region solution, coupling_image is A_i y_i.  One upload may carry
    several regions, each field then stacking theirs (the matrices along
    the diagonal): aladin.run_aladin sends its whole batch as one, its
    matrices CSR.  The two matrices may be dense or scipy.sparse.
    """

    fit_hessian: np.ndarray | scipy.sparse.sparray
    fit_gradient: np.ndarray
    constraint_jacobian: np.ndarray | scipy.sparse.sparray
    coupling_image: np.ndarray


def upload_floats(n_states: int, constraint_shape: tuple[int, int], n_coupling: int) -> int:
    """Floats of one region's upload, counted by shape whether its arrays
    are dense or scipy.sparse: the n_states square B_i^T B_i packed
    symmetric, C_i in full, and the dense B_i^T b_i and A_i y_i.  An
    upload that carries several regions counts as the sum of theirs, not
    by its stacked shapes."""
    c_rows, c_cols = constraint_shape
    return n_states * (n_states + 1) // 2 + c_rows * c_cols + n_states + n_coupling


def solve_consensus(
    uploads: list[SensitivityUpload], couplings: list[scipy.sparse.sparray | np.ndarray]
) -> linalg.KktSolution:
    """Solve the coupled QP: the solution's step is the step on the
    uploads' stacked states, in upload order, and its multipliers are the
    consensus multipliers lam, one per coupling row.

    Raises DimensionMismatch before any assembly when an upload's matrices
    or a coupling matrix are not 2-D or their shapes do not fit together;
    the message names the upload by its position in uploads.
    """
    if len(uploads) != len(couplings):
        raise DimensionMismatch(f"{len(uploads)} uploads for {len(couplings)} coupling matrices")
    if not uploads:
        raise DimensionMismatch("no regions")
    for k, (up, a) in enumerate(zip(uploads, couplings)):
        for name, block in (("fit Hessian", up.fit_hessian), ("constraint Jacobian", up.constraint_jacobian),
                            ("coupling matrix", a)):
            if np.ndim(block) != 2:
                raise DimensionMismatch(f"upload {k}: {name} has shape {np.shape(block)}, expected 2-D")
    n_coupling = couplings[0].shape[0]
    for k, (up, a) in enumerate(zip(uploads, couplings)):
        n_i = up.fit_hessian.shape[0]
        if up.fit_hessian.shape != (n_i, n_i):
            raise DimensionMismatch(f"upload {k}: fit Hessian is not square")
        if up.fit_gradient.shape != (n_i,):
            raise DimensionMismatch(f"upload {k}: gradient length mismatch")
        if up.constraint_jacobian.shape[1] != n_i:
            raise DimensionMismatch(f"upload {k}: constraint Jacobian column mismatch")
        if a.shape != (n_coupling, n_i):
            raise DimensionMismatch(f"upload {k}: coupling matrix shape {a.shape}")
        if up.coupling_image.shape != (n_coupling,):
            raise DimensionMismatch(f"upload {k}: coupling image length mismatch")

    hessian = 2.0 * linalg.stack_csr([up.fit_hessian for up in uploads], diagonal=True)
    physics = linalg.stack_csr([up.constraint_jacobian for up in uploads], diagonal=True)
    border = scipy.sparse.hstack([scipy.sparse.csr_array(a, dtype=float) for a in couplings], format="csr")
    jac = linalg.stack_csr([physics, border])
    gradient = 2.0 * np.concatenate([up.fit_gradient for up in uploads])
    m_total = physics.shape[0]
    gap = np.sum([up.coupling_image for up in uploads], axis=0)
    residual = np.concatenate([np.zeros(m_total), gap])

    sol = linalg.solve_kkt(
        linalg.KktSystem(
            hessian=hessian, constraint_jacobian=jac, gradient=gradient, residual=residual
        )
    )
    return linalg.KktSolution(sol.step, sol.multipliers[m_total:], sol.regularized)
