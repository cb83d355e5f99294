"""Edge-consensus ADMM baseline for the same partitioned estimation problem.

Coupling is enforced on the auxiliary boundary copies only: for each
auxiliary pair both regions hold a copy of the pair's (theta, v, p, q), and
the coordinator keeps one shared target per copy.  Region i minimizes its
local fit plus lam_i^T (E_i y - zeta_i) + (rho/2) ||E_i y - zeta_i||^2
subject to its power-flow physics.  The coordinator then projects the
copies of each consensus row r onto {sum_c s_c y_c = 0}, the signs s_c read
from the coupling entries that partition_grid records for every region
(RegionGrid.coupling_rows, coupling_cols and coupling_signs).  Every row
couples exactly two copies, so zeta_c = y_c - s_c (A y)_r / 2.  For an
angle or magnitude row (signs +1/-1) that is the average of the two
copies; for an injection row (signs +1/+1) it splits the midpoint's power
imbalance evenly, so the targets are opposite.  The scaled multipliers take
the usual residual update.

The outer loop, and with it the reported consensus violation
||sum_i A_i y_i||_inf, is the Gauss-Newton estimator's (aladin.py), so the
two histories compare like for like.  Per iteration each region uploads
its 4|A_i| copies and downloads its 4|A_i| targets.
"""

from __future__ import annotations

import numpy as np

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
    # Copy t of region i is state coordinate cols[i][t], coupled with sign
    # signs[i][t] into consensus row rows[i][t].
    rows = [r.coupling_rows for r in part.regions]
    cols = [r.coupling_cols for r in part.regions]
    signs = [r.coupling_signs for r in part.regions]
    n_copies = sum(len(r) for r in rows)

    def project(ys: list[np.ndarray], gap: np.ndarray) -> list[np.ndarray]:
        # Every consensus row couples exactly two copies, one per side of its pair.
        return [ys[i][cols[i]] - signs[i] * gap[rows[i]] / 2.0 for i in range(part.n_regions)]

    zeta = project(zs, partition_mod.consensus_gap(part, zs))
    lams = [np.zeros(len(rows[i])) for i in range(part.n_regions)]

    def prox_terms(i: int, z_i: np.ndarray):
        lin = np.zeros(z_i.size)
        np.add.at(lin, cols[i], lams[i])
        return lin, zeta[i], cols[i]

    def coordinate(sols, gap, record):
        nonlocal zeta
        ys = [sol.y for sol in sols]
        zeta = project(ys, gap)
        for i in range(part.n_regions):
            lams[i] = lams[i] + config.rho * (ys[i][cols[i]] - zeta[i])
        record.upload_floats = record.download_floats = n_copies
        return ys, record.consensus_violation <= config.eps

    zs, converged, history, note = _outer_loop(part, mset, config, zs, truth, prox_terms, coordinate)
    return RunResult(zs=zs, converged=converged, iterations=len(history), history=history, note=note)
