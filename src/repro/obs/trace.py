"""Per-query trace records and the bounded ring buffer that keeps them.

A :class:`QueryTrace` is one served query's worth of observability: how the
search behaved (hops, NDC, peak frontier), which serving state it saw (epoch
id, overlay sequence number, pin lifetime), and how the caches treated it.
Traces are recorded only while the owning registry is enabled, into a
fixed-capacity ring (:class:`TraceLog`) — memory is bounded no matter how
long the process serves.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import deque


@dataclasses.dataclass(slots=True)
class QueryTrace:
    """One served query's execution record (see docs/observability.md)."""

    k: int = 0
    ef: int = 0
    n_hops: int = 0
    ndc: int = 0
    frontier_peak: int = 0
    epoch_id: int = -1
    overlay_seq: int = -1
    pin_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    cache_hit: bool = False
    queue_depth: int = 0
    degraded: bool = False
    executor: str = "reference"  # "native" (_beam.c) | "reference" (Python)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class TraceLog:
    """Bounded ring of the most recent :class:`QueryTrace` records."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buffer: deque[QueryTrace] = deque(maxlen=capacity)
        self.n_recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def record(self, trace: QueryTrace) -> None:
        with self._lock:
            self._buffer.append(trace)
            self.n_recorded += 1

    def recent(self, n: int | None = None) -> list[QueryTrace]:
        """The newest ``n`` traces (all retained ones when ``n`` is None)."""
        with self._lock:
            traces = list(self._buffer)
        return traces if n is None else traces[-n:]

    def to_json(self, n: int | None = None, indent: int | None = None) -> str:
        return json.dumps([t.to_dict() for t in self.recent(n)], indent=indent)

    def clear(self) -> None:
        """Drop the retained traces; ``n_recorded`` stays monotonic.

        Rate consumers (scrape deltas) difference ``n_recorded`` across
        reads — resetting it here would make those deltas go negative.
        """
        with self._lock:
            self._buffer.clear()
