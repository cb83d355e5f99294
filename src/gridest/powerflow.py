"""Newton-Raphson power flow in polar coordinates.

Solves the classic slack/PV/PQ problem for one case: angles are unknown
everywhere except the slack bus, magnitudes are unknown at PQ buses.  After
convergence the injections at every bus are back-computed from the final
voltages (grid.PowerFlowModel.injections) so the returned state satisfies
the full power flow residual to machine precision, not just to the
mismatch tolerance.

One grid.PowerFlowModel evaluates the mismatch (eval) and the injections
in O(nnz) on the sparse pattern of Y.  Each Newton matrix is the reduced
block of its CSR Jacobian, factored with sparse LU: like the network it
has a few nonzeros per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid, linalg
from .errors import Diverged, SingularJacobian, SingularMatrix, ValidationError

#: Hard cap on the mismatch norm; beyond this the iteration is declared lost.
_BLOWUP = 1e6
#: Mismatch tolerance (inf-norm) and Newton iteration budget.
TOL = 1e-10
MAX_ITER = 30


@dataclass
class PowerFlowSolution:
    state: np.ndarray
    iterations: int
    mismatch: float


def solve_power_flow(case: grid.GridCase) -> PowerFlowSolution:
    """Solve the power flow of a case from a flat start.

    Returns a PowerFlowSolution whose state is the full 4 N node-major
    vector with back-computed injections (the power flow residual of the
    returned state is zero to rounding).

    Raises Diverged when the mismatch blows up or the iteration budget is
    exhausted, SingularJacobian when the Newton matrix loses rank, and
    ValidationError for a case without exactly one slack bus.
    """
    slack = [i for i, bus in enumerate(case.buses) if bus.kind == "slack"]
    if len(slack) != 1:
        raise ValidationError(f"power flow needs exactly one slack bus, case has {len(slack)}")
    model = grid.PowerFlowModel(case)
    n = case.n_bus
    kinds = np.array([bus.kind for bus in case.buses])
    pq = np.flatnonzero(kinds == "pq")
    non_slack = np.flatnonzero(kinds != "slack")
    # Mismatch rows: p off the slack bus, q at PQ buses.  Unknowns: theta
    # off the slack bus, v at PQ buses.
    rows = np.concatenate([2 * non_slack, 2 * pq + 1])
    cols = np.concatenate([4 * non_slack + grid.THETA, 4 * pq + grid.V])

    p_spec = np.array([bus.p_injection for bus in case.buses])
    q_spec = np.array([bus.q_injection for bus in case.buses])
    v = np.ones(n)
    for i, bus in enumerate(case.buses):
        if bus.kind in ("slack", "pv"):
            v[i] = bus.v_setpoint
    x = grid.pack_state(np.zeros(n), v, p_spec, q_spec)

    mis = model.eval(x)[rows]
    for it in range(1, MAX_ITER + 1):
        jac = model.jacobian(x)[rows][:, cols]
        try:
            step = linalg.solve_linear(jac, -mis)
        except SingularMatrix as exc:
            raise SingularJacobian(f"power flow Jacobian singular at iteration {it}") from exc
        x[cols] += step
        mis = model.eval(x)[rows]
        norm = np.abs(mis).max(initial=0.0)
        if not np.isfinite(norm) or norm > _BLOWUP:
            raise Diverged(f"power flow mismatch blew up at iteration {it}")
        if norm <= TOL:
            s = model.injections(x)
            x[grid.P :: 4], x[grid.Q :: 4] = s.real, s.imag
            return PowerFlowSolution(state=x, iterations=it, mismatch=norm)
    raise Diverged(f"power flow did not reach tol {TOL:g} in {MAX_ITER} iterations")
