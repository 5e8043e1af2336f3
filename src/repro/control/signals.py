"""Navigability signals: windowed graph-health scores from query traces.

The serving layer already measures how hard every query was — hops, NDC,
peak frontier size, and whether a deadline degraded the answer all ride on
:class:`~repro.obs.QueryTrace`.  This module folds those per-query records
(plus the serving state the scheduler can read directly: overlay depth and
tombstone density) into one *navigability score* a maintenance policy can
threshold: 0.0 means "searches behave like the calibrated baseline", and
the score grows as traversal work inflates past it.

Everything here is windowed and deterministic:

- per-query signals live in bounded deques (``window`` traces), so a
  long-running server's signal state is O(window), not O(traffic);
- the baseline is locked from the first ``baseline_traces`` traces after
  (re)calibration — the healthy reference the ratios compare against;
- storm detection counts *operations*, not wall-clock: a delete storm is
  ``storm_deletes`` deletions inside the last ``storm_window`` mutations,
  which makes chaos tests and replay reproducible.

:class:`NavigabilitySignals` takes no locks.  All writers (trace sink,
mutation hooks) are funneled through the scheduler, whose single-writer
discipline already serializes them; readers only consume the snapshot the
policy computes under the scheduler's decision points.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable

import numpy as np


@dataclasses.dataclass(slots=True)
class SignalSnapshot:
    """One windowed reading of the navigability signals.

    ``score`` is the composite health score (0.0 = at baseline, larger =
    worse); ``slope`` is its short-horizon change (positive = degrading).
    ``storm`` reports whether the mutation window currently qualifies as a
    delete storm.  ``n`` counts the traces the window holds — policies
    should ignore score/slope below their own minimum sample size.
    """

    n: int = 0
    hops_mean: float = 0.0
    ndc_mean: float = 0.0
    frontier_mean: float = 0.0
    degraded_rate: float = 0.0
    overlay_depth: int = 0
    tombstone_density: float = 0.0
    score: float = 0.0
    slope: float = 0.0
    storm: bool = False
    recent_deletes: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class NavigabilitySignals:
    """Sliding-window aggregator of per-query hardness + mutation pressure.

    Parameters
    ----------
    window:
        Traces retained for the score's means (the decision horizon).
    baseline_traces:
        Traces averaged into the healthy baseline before ratios activate.
        Until the baseline locks, the trace-ratio terms contribute 0 and
        the score is driven by degraded rate and tombstone density alone.
    storm_window, storm_deletes:
        A delete storm is ``storm_deletes`` deletions within the last
        ``storm_window`` mutations (inserts + deletes), measured in
        operation counts so detection is replay-deterministic.
    """

    def __init__(self, window: int = 128, baseline_traces: int = 32,
                 storm_window: int = 64, storm_deletes: int = 24):
        if window <= 0 or baseline_traces <= 0:
            raise ValueError("window and baseline_traces must be positive")
        if storm_window <= 0 or storm_deletes <= 0:
            raise ValueError("storm_window and storm_deletes must be positive")
        self.window = window
        self.baseline_traces = baseline_traces
        self.storm_window = storm_window
        self.storm_deletes = storm_deletes
        self._hops: deque[int] = deque(maxlen=window)
        self._ndc: deque[int] = deque(maxlen=window)
        self._frontier: deque[int] = deque(maxlen=window)
        self._degraded: deque[int] = deque(maxlen=window)
        # +1 per delete, 0 per insert — the storm detector's op window.
        self._mutations: deque[int] = deque(maxlen=storm_window)
        self._scores: deque[float] = deque(maxlen=8)  # slope horizon
        self.baseline_hops: float | None = None
        self.baseline_ndc: float | None = None
        self.n_traces = 0
        self.n_mutations = 0
        self.n_deletes = 0
        #: Bumped on every write; policies memoize snapshots against it.
        self.version = 0
        # Serving-state providers, wired by the policy at bind time; the
        # defaults keep the aggregator usable standalone (tests, offline
        # analysis of exported traces).
        self.overlay_depth_fn: Callable[[], int] = lambda: 0
        self.tombstone_density_fn: Callable[[], float] = lambda: 0.0

    # -- feeding ------------------------------------------------------------

    def observe_trace(self, trace) -> None:
        """Fold one :class:`~repro.obs.QueryTrace` (duck-typed) in."""
        self._hops.append(int(trace.n_hops))
        self._ndc.append(int(trace.ndc))
        self._frontier.append(int(trace.frontier_peak))
        self._degraded.append(1 if getattr(trace, "degraded", False) else 0)
        self.n_traces += 1
        self.version += 1
        if (self.baseline_hops is None
                and self.n_traces >= self.baseline_traces):
            self.calibrate()

    def note_mutation(self, kind: str, n: int = 1) -> None:
        """Record ``n`` mutations of ``kind`` ("insert"/"delete")."""
        is_delete = kind == "delete"
        for _ in range(max(int(n), 0)):
            self._mutations.append(1 if is_delete else 0)
        self.n_mutations += max(int(n), 0)
        if is_delete:
            self.n_deletes += max(int(n), 0)
        self.version += 1

    def calibrate(self) -> None:
        """Lock the current window means in as the healthy baseline."""
        if self._hops:
            self.baseline_hops = max(float(np.mean(self._hops)), 1.0)
            self.baseline_ndc = max(float(np.mean(self._ndc)), 1.0)

    # -- reading ------------------------------------------------------------

    @property
    def recent_deletes(self) -> int:
        """Deletes inside the last ``storm_window`` mutations."""
        return sum(self._mutations)

    @property
    def storm_detected(self) -> bool:
        return self.recent_deletes >= self.storm_deletes

    def snapshot(self) -> SignalSnapshot:
        """Compute the current windowed score (and advance the slope)."""
        n = len(self._hops)
        hops_mean = float(np.mean(self._hops)) if n else 0.0
        ndc_mean = float(np.mean(self._ndc)) if n else 0.0
        frontier_mean = float(np.mean(self._frontier)) if n else 0.0
        degraded_rate = float(np.mean(self._degraded)) if n else 0.0
        overlay_depth = int(self.overlay_depth_fn())
        tombstone_density = float(self.tombstone_density_fn())
        score = 2.0 * degraded_rate + tombstone_density
        if self.baseline_hops is not None and n:
            score += max(0.0, hops_mean / self.baseline_hops - 1.0)
            score += max(0.0, ndc_mean / self.baseline_ndc - 1.0)
        previous = float(np.mean(self._scores)) if self._scores else score
        self._scores.append(score)
        return SignalSnapshot(
            n=n,
            hops_mean=hops_mean,
            ndc_mean=ndc_mean,
            frontier_mean=frontier_mean,
            degraded_rate=degraded_rate,
            overlay_depth=overlay_depth,
            tombstone_density=tombstone_density,
            score=score,
            slope=score - previous,
            storm=self.storm_detected,
            recent_deletes=self.recent_deletes,
        )
