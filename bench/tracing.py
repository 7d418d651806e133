"""Spans recorded around the benchmark's calls into braggstack.

A span records the name of the public function called (`module.function`),
its start and end (`time.perf_counter`, seconds), its parent span and the
operation it belongs to.  Spans are kept in memory and handed to the caller
at the end of the run.  With tracing off, `call` is a plain function call.

A composite call such as `experiments.spectrum` can be followed by calls to
its public parts on the same inputs.  Those run after the composite has
returned, so they are attached to it with `under` rather than by nesting in
time; a span's self time is therefore its duration minus the durations of
its children.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None
        self.last = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Return fn(*args, **kwargs), inside a span named `name` if enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
            self.last = span["id"]

    @contextmanager
    def under(self, span_id):
        """Make spans opened in this block children of an earlier span."""
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Seconds of self time per layer (the module part of the span name)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += duration(s) - covered[s["id"]]
    return dict(out)


def totals(spans) -> dict:
    """Seconds spent per span name, children included."""
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s)
    return dict(out)
