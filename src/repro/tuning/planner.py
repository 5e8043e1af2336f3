"""Hardness-aware query planner: predict a bin, pick the path, seed entries.

The planner is the serving-time half of the autotuner.  Per query (or per
batched block) it:

1. **Predicts hardness** — distance to the nearest landmark of the tuned
   config's centroid set (the same measure the tuner binned calibration
   queries by), digitized against the config's edges.  The control plane's
   navigability score joins as a workload-level prior: when the graph is
   measurably degraded, every prediction shifts one bin harder.
2. **Routes** — each bin carries an ``ef``/``beam_width``/``rerank``/route
   from the fitted table; the serving searcher partitions a batch by
   predicted bin and runs each group with its own engine settings
   (per-block partitioning, never per-query fallback).
3. **Adapts entry points** — the landmark set keeps drifting toward
   observed traffic (one streaming k-means step per planned batch), and
   each landmark lazily resolves to its nearest graph node, which seeds the
   block's beam alongside the epoch entry (adaptive entry point selection).

Prediction cost is one (block, n_landmarks) distance matrix — vectorized,
a few microseconds against the default 16 landmarks — so planning never
competes with traversal for the budget it is trying to save.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.obs import OBS
from repro.tuning.config import BinSetting, TunedConfig

_PLANNED = OBS.counter(
    "tuning_planned_queries", "queries routed by the hardness planner")
_ROUTED_EASY = OBS.counter(
    "tuning_routed_easy", "queries planned into the easiest hardness bin")
_ROUTED_HARD = OBS.counter(
    "tuning_routed_hard", "queries planned into the hardest hardness bin")
_SHIFTED = OBS.counter(
    "tuning_prior_shifts",
    "queries shifted one bin harder by the navigability prior")
_CONFUSED = OBS.counter(
    "tuning_hardness_confusion",
    "planned queries whose observed hop count disagreed with the "
    "predicted easy/hard side (see HardnessPlanner.stats)")
_BIN_OCCUPANCY = OBS.histogram(
    "tuning_bin_occupancy", "predicted hardness bin per planned query",
    buckets=[0.5, 1.5, 2.5, 3.5, 4.5])


class HardnessPlanner:
    """Serving-time hardness prediction + routing from a :class:`TunedConfig`.

    Parameters
    ----------
    config:
        The fitted table (edges, landmarks, per-bin settings).
    score_fn:
        Optional zero-arg callable returning the control plane's hardness
        prior in [0, 1] (:meth:`NavigabilitySignals.hardness_prior
        <repro.control.NavigabilitySignals.hardness_prior>`).  At or above
        ``config.score_shift`` every prediction shifts one bin harder.
    locate_fn:
        Optional callable ``(vector) -> node_id | None`` resolving a
        landmark centroid to its nearest graph node; wired by the store so
        landmark entries always come from the live index.
    adapt:
        When True (default) planned queries drift the landmark set with a
        streaming k-means step (rate ``adapt_rate``); entry resolutions are
        invalidated as their landmark moves.
    """

    def __init__(self, config: TunedConfig, score_fn=None, locate_fn=None,
                 adapt: bool = True, adapt_rate: float = 0.05,
                 reresolve_drift: float = 0.1):
        self.config = config
        self.metric = Metric.parse(config.metric)
        self.score_fn = score_fn
        self.locate_fn = locate_fn
        self.adapt = adapt
        self.adapt_rate = float(adapt_rate)
        # Entry re-resolution is a graph search (locate_fn) — charge it
        # only when a landmark has drifted this fraction of its own norm
        # since the last resolve, not on every streaming update.
        self.reresolve_drift = float(reresolve_drift)
        self._landmarks = np.ascontiguousarray(
            config.landmark_matrix(), dtype=np.float32)
        self._edges = np.asarray(config.edges, dtype=np.float64)
        self._entry_ids: list[int | None] = [None] * len(self._landmarks)
        self._drift = np.zeros(len(self._landmarks), dtype=np.float64)
        # Landmark drift happens on the query path (under the searcher's
        # callers' threads); one small lock keeps the centroid matrix and
        # its entry cache coherent without touching the search engines.
        self._lock = threading.Lock()
        self.n_planned = 0
        self.n_shifted = 0
        self.n_adapted = 0
        # Predicted-vs-observed hardness confusion: rows = predicted
        # easy/hard side, cols = observed easy/hard side (observed = hop
        # count vs the running median of planned traffic).
        self.confusion = np.zeros((2, 2), dtype=np.int64)
        self._hops_window: list[int] = []

    @property
    def n_bins(self) -> int:
        return self.config.n_bins

    # -- prediction ----------------------------------------------------------

    def hardness(self, queries: np.ndarray) -> np.ndarray:
        """Distance from each query to its nearest landmark."""
        qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if not len(self._landmarks):
            return np.zeros(qmat.shape[0], dtype=np.float64)
        with self._lock:
            landmarks = self._landmarks
        return pairwise_distances(qmat, landmarks, self.metric).min(axis=1)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Predicted hardness bin per query (prior shift applied)."""
        qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        bins = np.digitize(self.hardness(qmat), self._edges)
        shifted = False
        if self.score_fn is not None and self.n_bins > 1:
            if float(self.score_fn()) >= self.config.score_shift:
                bins = np.minimum(bins + 1, self.n_bins - 1)
                shifted = True
        n = int(qmat.shape[0])
        self.n_planned += n
        if shifted:
            self.n_shifted += n
        if OBS.enabled:
            _PLANNED.inc(n)
            if shifted:
                _SHIFTED.inc(n)
            _ROUTED_EASY.inc(int(np.count_nonzero(bins == 0)))
            _ROUTED_HARD.inc(int(np.count_nonzero(bins == self.n_bins - 1)))
            for b in bins.tolist():
                _BIN_OCCUPANCY.observe(b)
        return bins

    def plan(self, queries: np.ndarray
             ) -> tuple[np.ndarray, list[tuple[int, np.ndarray, BinSetting]]]:
        """Partition a batch by predicted bin.

        Returns ``(bins, groups)`` where ``groups`` is ``(bin, indices,
        setting)`` triples in ascending bin order; indices are positions
        into the original batch, so results regroup into caller order
        afterwards.  Bins whose fitted settings are identical coalesce
        into one group — every group pays its own pin, entry resolution and
        engine call, so splitting a batch between bins that would run the
        exact same search is pure overhead.  Also advances landmark
        adaptation.
        """
        qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        bins = self.predict(qmat)
        groups = []
        for b in range(self.n_bins):
            idx = np.flatnonzero(bins == b)
            if not idx.size:
                continue
            setting = self.config.setting(b)
            if groups and groups[-1][2] == setting:
                prev_b, prev_idx, _ = groups[-1]
                groups[-1] = (prev_b, np.concatenate([prev_idx, idx]),
                              setting)
            else:
                groups.append((b, idx, setting))
        if self.adapt:
            self.observe(qmat)
        return bins, groups

    # -- adaptation ----------------------------------------------------------

    def observe(self, queries: np.ndarray) -> None:
        """One streaming k-means step: drift landmarks toward the traffic."""
        qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if not len(self._landmarks) or not qmat.shape[0]:
            return
        with self._lock:
            nearest = pairwise_distances(
                qmat, self._landmarks, self.metric).argmin(axis=1)
            for j in np.unique(nearest).tolist():
                members = qmat[nearest == j]
                step = self.adapt_rate * (
                    members.mean(axis=0) - self._landmarks[j])
                self._landmarks[j] += step
                self._drift[j] += float(np.linalg.norm(step))
                # Invalidate the cached entry node only once the landmark
                # has moved materially — each re-resolve costs a search.
                scale = max(float(np.linalg.norm(self._landmarks[j])), 1e-9)
                if (self._entry_ids[j] is not None
                        and self._drift[j] > self.reresolve_drift * scale):
                    self._entry_ids[j] = None
                    self._drift[j] = 0.0
            self.n_adapted += qmat.shape[0]

    # -- adaptive entry points ----------------------------------------------

    def entry_for_block(self, queries: np.ndarray,
                        n_nodes: int | None = None,
                        excluded=None) -> int | None:
        """The nearest landmark's graph node for a block of queries.

        The block centroid picks the landmark; the landmark's node id is
        resolved lazily through ``locate_fn`` and cached until the landmark
        drifts.  Returns None when no usable entry exists (caller keeps the
        epoch entry).
        """
        if self.locate_fn is None or not len(self._landmarks):
            return None
        qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        centroid = qmat.mean(axis=0, keepdims=True).astype(np.float32)
        with self._lock:
            j = int(pairwise_distances(
                centroid, self._landmarks, self.metric).argmin())
            entry = self._entry_ids[j]
            landmark = self._landmarks[j].copy()
        if entry is None:
            entry = self.locate_fn(landmark)
            if entry is None:
                return None
            entry = int(entry)
            with self._lock:
                self._entry_ids[j] = entry
                self._drift[j] = 0.0
        if n_nodes is not None and entry >= n_nodes:
            return None  # beyond this epoch's horizon
        if excluded is not None and entry in excluded:
            return None
        return entry

    # -- feedback ------------------------------------------------------------

    def note_outcomes(self, bins: np.ndarray, results) -> None:
        """Fold observed hardness back into the confusion table.

        Observed hardness is the result's hop count against the running
        median of planned traffic — cheap, self-calibrating, and available
        on every path (hops ride on every :class:`SearchResult`).
        """
        hops = [int(getattr(r, "n_hops", 0)) for r in results]
        if not hops:
            return
        self._hops_window.extend(hops)
        if len(self._hops_window) > 512:
            self._hops_window = self._hops_window[-256:]
        threshold = float(np.median(self._hops_window))
        hard_bin = self.n_bins - 1
        confused = 0
        for b, h in zip(np.asarray(bins).tolist(), hops):
            predicted_hard = 1 if b >= max(hard_bin, 1) else 0
            observed_hard = 1 if h > threshold else 0
            self.confusion[predicted_hard, observed_hard] += 1
            if predicted_hard != observed_hard:
                confused += 1
        if confused and OBS.enabled:
            _CONFUSED.inc(confused)

    def stats(self) -> dict:
        return {
            "n_bins": self.n_bins,
            "n_landmarks": len(self._landmarks),
            "planned": self.n_planned,
            "prior_shifted": self.n_shifted,
            "adapted": self.n_adapted,
            "resolved_entries": sum(
                1 for e in self._entry_ids if e is not None),
            "confusion": self.confusion.tolist(),
        }
