"""Edge-consensus ADMM baseline for the same partitioned estimation problem.

Coupling is enforced on the auxiliary boundary copies only: for each
auxiliary pair both regions hold a copy of the pair's (theta, v, p, q), and
the coordinator keeps one shared target per copy.  Region i minimizes its
local fit plus lam_i^T (E_i y - zeta_i) + (rho/2) ||E_i y - zeta_i||^2
subject to its power-flow physics.  The copies are the states that the
stacked border [A_1 ... A_N] (Partition.coupling side by side) touches,
each exactly once, so one COO read of it gives every copy's union state,
consensus row and sign, and the method works on the regions' union as
vector operations (the stacked consensus form of Boyd et al., Distributed
Optimization and Statistical Learning via ADMM, 2011, section 7).  The
coordinator projects the copies of each consensus row r onto
{sum_c s_c y_c = 0}.  Every row couples exactly two copies, so
zeta_c = y_c - s_c (A y)_r / 2.  For an angle or magnitude row (signs
+1/-1) that is the average of the two copies; for an injection row (signs
+1/+1) it splits the midpoint's power imbalance evenly, so the targets are
opposite.  The scaled multipliers take the usual residual update.

The outer loop, and with it the reported consensus violation
||sum_i A_i y_i||_inf, is the Gauss-Newton estimator's (aladin.py), so the
two histories compare like for like.  Per iteration each region uploads
its 4|A_i| copies and downloads its 4|A_i| targets.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from . import measurements, partition as partition_mod
from .aladin import RunConfig, RunResult, _initial_states, _outer_loop

#: ADMM needs a larger outer budget than ALADIN's default of 50.
DEFAULT_CONFIG = RunConfig(max_outer=200)


def run_admm(
    part: partition_mod.Partition,
    mset: measurements.MeasurementSet,
    config: RunConfig | None = None,
    z0: list[np.ndarray] | None = None,
    truth: np.ndarray | None = None,
) -> RunResult:
    """Run until the consensus violation is <= config.eps (DEFAULT_CONFIG
    when None) or max_outer; z0 and truth are as in aladin.run_aladin."""
    config = config or DEFAULT_CONFIG
    zs = _initial_states(part, z0, truth)
    # Copy t is union state cols[t], coupled with sign signs[t] into
    # consensus row rows[t].
    border = scipy.sparse.hstack(part.coupling).tocoo()
    rows, cols, signs = border.row, border.col, border.data

    def project(y: np.ndarray, gap: np.ndarray) -> np.ndarray:
        # Every consensus row couples exactly two copies, one per side of its pair.
        return y[cols] - signs * gap[rows] / 2.0

    zeta = project(np.concatenate(zs), partition_mod.consensus_gap(part, zs))
    lam = np.zeros(len(cols))

    def prox_terms(z: np.ndarray):
        lin = np.zeros(z.size)
        lin[cols] = lam
        return lin, zeta, cols

    def coordinate(sols, gap, record):
        nonlocal zeta, lam
        ys = [sol.y for sol in sols]
        y = np.concatenate(ys)
        zeta = project(y, gap)
        lam = lam + config.rho * (y[cols] - zeta)
        record.upload_floats = record.download_floats = len(cols)
        return ys, record.consensus_violation <= config.eps

    zs, converged, history, note = _outer_loop(part, mset, config, zs, truth, prox_terms, coordinate)
    return RunResult(zs=zs, converged=converged, iterations=len(history), history=history, note=note)
