"""In-memory spans placed by the benchmark around its calls into lifebench.

A span records (name, start, end, parent, run id, attrs); attrs carry the
counts measured at the same boundary (steps, cells, bytes, ...). Spans stay
in memory until the run ends and are written out once.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

clock_ns = time.perf_counter_ns

# Spans recorded in untraced passes too, besides the engine-tagged ones.
CORE = ("pass", "setup")


@dataclass
class Span:
    name: str
    parent: int
    run: int
    attrs: dict = field(default_factory=dict)
    start: int = 0
    end: int = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process, one thread.

    Without `detailed` (an untraced pass) only the spans the end-to-end
    metrics are computed from are recorded: the CORE ones and those tagged
    with an engine. Every other span is a no-op whose record is dropped.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.detailed = False
        self._stack: list[int] = []

    def begin(self, run: int, detailed: bool) -> int:
        """Start run `run`; returns the index of its first span."""
        self.run = run
        self.detailed = detailed
        return len(self.spans)

    @contextmanager
    def span(self, name: str, **attrs):
        rec = Span(name, self._stack[-1] if self._stack else -1, self.run, attrs)
        if not (self.detailed or name in CORE or "engine" in attrs):
            yield rec
            return
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = clock_ns()
        try:
            yield rec
        finally:
            rec.end = clock_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, **attrs):
        """fn, with every call recorded as a span named `name`."""
        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    def write(self, path, header: dict) -> None:
        """All spans as JSON lines after one header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start_ns": s.start, "end_ns": s.end,
                                      "parent": s.parent, "run": s.run, "attrs": s.attrs}) + "\n")


def self_ns(spans: list[Span], first: int) -> list[int]:
    """Self time of each span in spans[first:]: its duration minus the part
    its direct children cover (children never outlive their parent)."""
    own = [s.ns for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.ns
    return own


def span_ns() -> float:
    """Cost of recording one span: the median over 5 batches of 10000 empty spans."""
    n = 10000
    costs = []
    for _ in range(5):
        tr = Tracer()
        tr.detailed = True
        start = clock_ns()
        for _ in range(n):
            with tr.span("calibrate", steps=1):
                pass
        costs.append((clock_ns() - start) / n)
    return statistics.median(costs)
