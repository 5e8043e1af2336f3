"""Similarity-adaptive search parameter selection (Sec. 7).

Fig. 9 of the paper shows that the ef needed for a target recall varies
strongly with a test query's similarity to the historical workload: queries
near fixed regions need small ef; dissimilar queries need much more.  The
proposed strategy — compute the new query's similarity to the history, then
pick ef accordingly — is implemented here:

1. :meth:`AdaptiveSearcher.calibrate` bins a calibration query set by
   distance-to-nearest-historical-query and, per bin, finds the smallest ef
   reaching the target recall.
2. :meth:`AdaptiveSearcher.search` measures the incoming query's history
   distance (one brute-force pass over the compact history set) and applies
   the bin's ef.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.evalx.ground_truth import GroundTruth
from repro.evalx.metrics import recall_per_query
from repro.graphs.search import SearchResult
from repro.utils.validation import check_matrix, check_positive


class AdaptiveSearcher:
    """Per-query ef selection from similarity to the historical workload."""

    def __init__(self, index, history: np.ndarray, n_bins: int = 3):
        check_positive(n_bins, "n_bins")
        self.index = index
        self.history = check_matrix(history, "history")
        self.n_bins = n_bins
        self._edges: np.ndarray | None = None
        self._bin_ef: list[int] | None = None
        self.fallback_ef: int | None = None

    @property
    def dc(self):
        return self.index.dc

    @property
    def metric(self) -> Metric:
        return self.index.dc.metric

    def history_distance(self, queries: np.ndarray) -> np.ndarray:
        """Distance from each query to its nearest historical query."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        return pairwise_distances(queries, self.history, self.metric).min(axis=1)

    def calibrate(
        self,
        queries: np.ndarray,
        gt: GroundTruth,
        k: int,
        target_recall: float = 0.95,
        ef_grid: list[int] | None = None,
    ) -> dict:
        """Learn per-similarity-bin ef values from a calibration set.

        Bins are similarity quantiles; per bin the smallest grid ef whose
        mean recall meets ``target_recall`` is kept (grid maximum if never
        met).  Returns the calibration table for inspection.
        """
        queries = check_matrix(queries, "queries")
        if ef_grid is None:
            ef_grid = [k, 2 * k, 4 * k, 8 * k, 16 * k]
        ef_grid = sorted(set(ef_grid))
        sims = self.history_distance(queries)
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self._edges = np.quantile(sims, quantiles)
        bins = np.digitize(sims, self._edges)

        gt_k = gt.top(k)
        fitted: list[int | None] = []
        table = {}
        for b in range(self.n_bins):
            members = np.flatnonzero(bins == b)
            chosen: int | None = None
            if members.size:
                chosen = ef_grid[-1]
                for ef in ef_grid:
                    found = self._grid_ids(queries, members, k, ef)
                    recall = float(recall_per_query(found, gt_k.ids[members]).mean())
                    if recall >= target_recall:
                        chosen = ef
                        break
            fitted.append(chosen)
            table[b] = {"n_queries": int(members.size), "ef": chosen}
        # Empty bins inherit the nearest *fitted* bin's ef (ties go to the
        # harder side) instead of silently pinning the grid maximum: no
        # calibration query ever landed there, so the grid max would claim a
        # precision the data cannot support.
        fit_idx = [b for b, ef in enumerate(fitted) if ef is not None]
        self._bin_ef = []
        for b, ef in enumerate(fitted):
            if ef is None:
                src = min(fit_idx, key=lambda f: (abs(f - b), -f))
                ef = fitted[src]
                table[b]["ef"] = ef
                table[b]["inherited_from"] = src
            self._bin_ef.append(ef)
        self.fallback_ef = max(self._bin_ef)
        return table

    def _grid_ids(self, queries: np.ndarray, members: np.ndarray, k: int,
                  ef: int) -> np.ndarray:
        """Top-k id matrix for one (bin, ef) calibration cell.

        Routed through the index's batched engine when it has one —
        batched search returns the sequential path's ids at its defaults,
        so the chosen efs do not change; only the O(bins x grid x queries)
        python loop does.
        """
        search_batch = getattr(self.index, "search_batch", None)
        if search_batch is not None:
            results = search_batch(queries[members], k=k, ef=ef)
        else:
            results = [self.index.search(queries[i], k=k, ef=ef)
                       for i in members]
        found = np.full((len(results), k), -1, dtype=np.int64)
        for row, result in enumerate(results):
            ids = result.ids[:k]
            found[row, :len(ids)] = ids
        return found

    def ef_for(self, query: np.ndarray) -> int:
        """The calibrated ef for one query."""
        if self._bin_ef is None or self._edges is None:
            raise RuntimeError(
                "AdaptiveSearcher has no calibrated bins: call calibrate() "
                "with a calibration query set before ef_for()/search()")
        sim = float(self.history_distance(query[None, :])[0])
        b = int(np.digitize([sim], self._edges)[0])
        return self._bin_ef[b]

    def search(self, query: np.ndarray, k: int, ef: int | None = None) -> SearchResult:
        """Search with the per-query calibrated ef (explicit ef overrides)."""
        if ef is None:
            ef = self.ef_for(query)
        return self.index.search(query, k=k, ef=ef)
