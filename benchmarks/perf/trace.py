"""In-memory spans for the traced run.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index of
the enclosing span (``-1`` at the top) and spans of one operation share an
``op_id``.  Spans stay in memory until the run ends and are then written as
one JSON object per line.  A layer's self time is its span's duration minus
the part of that interval its child spans cover.

The spans are recorded by the benchmark around the calls it makes into each
layer's public functions; nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op_id: int


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op_id: int = -1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, op_id))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())

    def add(self, name: str, start: float, end: float, op_id: int = -1) -> int:
        """Record an already-timed interval under the innermost open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, op_id))
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: pathlib.Path) -> None:
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op_id": s.op_id, "self": own[i],
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not subtracted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
