"""Tests of the span recorder, self times and the untraced harness path.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, self_times, union_length  # noqa: E402


def span(sid, parent, start, end, thread=1):
    return Span(sid, parent, 0, f"s{sid}", thread, start, end)


def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert union_length([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [span(0, None, 0, 10), span(1, 0, 1, 4), span(2, 0, 3, 6)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_children_on_other_threads_count_once_where_they_overlap():
    spans = [span(0, None, 0, 10, thread=1),
             span(1, 0, 2, 7, thread=2), span(2, 0, 2, 7, thread=3), span(3, 0, 6, 8, thread=4)]
    own = self_times(spans)
    assert own[0] == pytest.approx(4.0)
    assert [own[i] for i in (1, 2, 3)] == pytest.approx([5.0, 5.0, 2.0])


def test_nested_spans_subtract_only_their_direct_children():
    spans = [span(0, None, 0, 10), span(1, 0, 1, 5), span(2, 1, 2, 3)]
    own = self_times(spans)
    assert [own[0], own[1], own[2]] == pytest.approx([6.0, 3.0, 1.0])


class Box:
    @staticmethod
    def work(x):
        return x + 1


def test_worker_thread_calls_take_the_open_phase_as_parent():
    rec = Recorder()
    original = vars(Box)["work"]
    rec.wrap(Box, "work", "box.work")
    rec.scenario = 3
    with rec.phase("estimate") as phase:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(Box.work, range(4))) == [1, 2, 3, 4]
        assert Box.work(0) == 1
    rec.uninstall()
    assert vars(Box)["work"] is original
    calls = [s for s in rec.spans if s.name == "box.work"]
    assert len(calls) == 5
    assert all(s.parent == phase.id and s.scenario == 3 for s in calls)
    assert {s.thread for s in calls} - {threading.get_ident()}


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = layers.snapshot()
    rec = Recorder()
    layers.install(rec)
    try:
        during = layers.snapshot()
        assert all(during[key] is not before[key] for key in before)
    finally:
        rec.uninstall()
    after = layers.snapshot()
    assert all(after[key] is before[key] for key in before)


def test_an_untraced_pass_leaves_every_wrapped_attribute_untouched():
    before = layers.snapshot()
    ledger = run.Ledger()
    p = run.Pass(run.Workload(0, 1, ("estimate", "central")), 0, 7, ledger)
    assert p.run(), ledger.failures
    assert not ledger.failures
    assert p.metrics["estimate_iterations"] == 3
    after = layers.snapshot()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**layers.UNITS, **run.PHASE_METRICS}


def test_accounting_adds_self_times_under_each_phase():
    serial = [Span(0, None, 0, "central", 1, 0, 10), span(1, 0, 1, 4), span(2, 1, 2, 3)]
    threaded = [Span(3, None, 0, "estimate", 1, 20, 30), span(4, 3, 21, 29, thread=2), span(5, 3, 21, 29, thread=3)]
    rows = layers.phase_accounting(serial + threaded)
    assert rows["central"] == pytest.approx({"wall": 10.0, "self": 7.0, "accounted": 10.0})
    assert rows["estimate"] == pytest.approx({"wall": 10.0, "self": 2.0, "accounted": 18.0})
