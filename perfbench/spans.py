"""In-memory spans around calls into the program, and their self times.

A Recorder replaces module or class attributes with timing wrappers and
puts every original back on uninstall.  Each wrapped call records a span:
name, start, end, thread, parent span and scenario.  The parent is the
innermost span still open on the calling thread; a call made on a thread
with no open span (a region solve on an estimator's pool thread) takes the
harness's open phase span as its parent instead.

A span's self time is its duration minus the length of the union of the
intervals its child spans cover.  Children may overlap (region solves on a
thread pool) and may run on other threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    scenario: int | None
    name: str
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.parent, self.scenario, self.name, self.thread,
                self.start, self.end, self.attrs]


class Recorder:
    """Collects spans; install() wraps attributes, uninstall() restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scenario: int | None = None
        self._phase: Span | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span on the calling thread; yields it for attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else self._phase
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, None if parent is None else parent.id, self.scenario, name,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def phase(self, name: str):
        """A harness span that parents calls made on threads with no open span."""
        outer = self._phase
        with self.span(name) as span:
            self._phase = span
            try:
                yield span
            finally:
                self._phase = outer

    def wrap(self, owner: object, attr: str, name: str,
             annotate: Callable[[tuple, dict, object], dict] | None = None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        annotate(args, kwargs, result), when given, returns attributes
        stored on the span after the call returns.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    span.attrs.update(annotate(args, kwargs, result))
                return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }
