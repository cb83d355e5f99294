"""A traced benchmark pass runs clean and yields every per-layer metric.

perfbench/run.py --trace 1 wraps the functions in perfbench/layers.py
TARGETS and reads the arguments and results of the wrapped calls.  A change
to what such a call receives can break the traced harness while every
untraced test still passes; this test runs one traced paper30 pass.
"""

from __future__ import annotations

import math

import layers
import run
from spans import Recorder


def test_a_traced_paper30_pass_yields_every_layer_metric():
    workload = run.Workload(0, 1, ("estimate", "central", "posterior"))
    ledger = run.Ledger()
    before = layers.snapshot()
    recorder = Recorder()
    layers.install(recorder)
    try:
        ok = run.Pass(workload, 0, run.measurement_seeds(1, 1)[0], ledger, recorder).run()
    finally:
        recorder.uninstall()
    assert layers.snapshot() == before
    assert ok and ledger.failures == []
    metrics = layers.layer_metrics([s for s in recorder.spans if s.scenario is not None])
    assert set(metrics) == set(layers.UNITS)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert metrics["posterior.covariance_rows"] > 0
    assert metrics["coordinator.kkt_rows"] > 0
