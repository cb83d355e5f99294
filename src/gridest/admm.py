"""Edge-consensus ADMM baseline for the same partitioned estimation problem.

Coupling is enforced on the auxiliary boundary copies only: for each
auxiliary pair both regions hold a copy of the pair's (theta, v, p, q), and
the coordinator keeps one shared target per copy.  Region i minimizes its
local fit plus lam_i^T (E_i y - zeta_i) + (rho/2) ||E_i y - zeta_i||^2
subject to its power-flow physics.  The copies are the states that the
stacked border Partition.border = [A_1 ... A_N] touches, each exactly
once, so one COO read of it gives every copy's union state, consensus row
and sign.  The method works on the outer loop's union iterate as vector
operations (the stacked consensus form of Boyd et al., Distributed
Optimization and Statistical Learning via ADMM, 2011, section 7): the
projection and the dual update read the union solution y and the gap
border @ y it receives.  The coordinator projects the copies of each
consensus row r onto {sum_c s_c y_c = 0}.  Every row couples exactly two
copies, so zeta_c = y_c - s_c (A y)_r / 2.  For an angle or magnitude row
(signs +1/-1) that is the average of the two copies; for an injection row
(signs +1/+1) it splits the midpoint's power imbalance evenly, so the
targets are opposite.  The scaled multipliers take the usual residual
update.  The first targets are the projection of the starting iterate.

The outer loop, and with it the reported consensus violation
||sum_i A_i y_i||_inf, is the Gauss-Newton estimator's (aladin.py), so the
two histories compare like for like.  Per iteration each region uploads
its 4|A_i| copies and downloads its 4|A_i| targets.
"""

from __future__ import annotations

import numpy as np

from . import linalg, measurements, partition as partition_mod
from .aladin import RunConfig, RunResult, _initial_states, _outer_loop, _region_batch

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
    z = _initial_states(part, z0, truth)
    # Copy t is union state cols[t], coupled with sign signs[t] into
    # consensus row rows[t].
    border = part.border.tocoo()
    rows, cols, signs = border.row, border.col, border.data

    def project(y: np.ndarray, gap: np.ndarray) -> np.ndarray:
        # Every consensus row couples exactly two copies, one per side of its pair.
        return y[cols] - signs * gap[rows] / 2.0

    zeta = project(z, linalg.matvec(part.border, z))
    lam = np.zeros(len(cols))

    def prox_terms(z: np.ndarray):
        lin = np.zeros(z.size)
        lin[cols] = lam
        return lin, zeta, cols

    def coordinate(sols, y, gap, record):
        nonlocal zeta, lam
        zeta = project(y, gap)
        lam = lam + config.rho * (y[cols] - zeta)
        record.upload_floats = record.download_floats = len(cols)
        return y, record.consensus_violation <= config.eps

    zs, converged, history, note = _outer_loop(part, _region_batch(part, mset), config, z, truth, prox_terms,
                                               coordinate)
    return RunResult(zs=zs, converged=converged, iterations=len(history), history=history, note=note)
