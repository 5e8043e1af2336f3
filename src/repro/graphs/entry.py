"""Entry-point selection strategies (Sec. 3's "entry point problem").

Several works the paper cites (LSH-APG, HVS, HM-ANN) attack graph search by
choosing better entry points; the paper itself fixes the entry at the base
medoid (Sec. 5.4) and repairs navigability with RFix instead.  These
strategies make that design decision testable: wrap any index with
:class:`MultiEntryIndex` and compare.

- :class:`MedoidEntry` — the paper's choice: one fixed, central entry.
- :class:`RandomEntry` — ``n_entries`` fresh random starts per query.
- :class:`CentroidsEntry` — k-means cluster medoids; each query enters at
  the ``n_probe`` centroids nearest to it (an LSH-APG-flavored router at a
  fraction of the machinery).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.distances import DistanceComputer, pairwise_distances
from repro.graphs.base import GraphIndex, medoid_id
from repro.graphs.search import SearchResult, greedy_search
from repro.quantization.kmeans import kmeans
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_positive


class EntryStrategy(abc.ABC):
    """Chooses starting nodes for a (prepared) query."""

    @abc.abstractmethod
    def entries(self, dc: DistanceComputer, query: np.ndarray) -> list[int]:
        """Entry node ids for this query."""


class MedoidEntry(EntryStrategy):
    """Single fixed entry at the base-data medoid (the paper's choice)."""

    def __init__(self, dc: DistanceComputer):
        self._medoid = medoid_id(dc)

    def entries(self, dc: DistanceComputer, query: np.ndarray) -> list[int]:
        return [self._medoid]


class RandomEntry(EntryStrategy):
    """``n_entries`` random starting nodes, re-drawn per query."""

    def __init__(self, n_entries: int = 3,
                 seed: int | np.random.Generator | None = 0):
        check_positive(n_entries, "n_entries")
        self.n_entries = n_entries
        self._rng = ensure_rng(seed)

    def entries(self, dc: DistanceComputer, query: np.ndarray) -> list[int]:
        picks = self._rng.choice(dc.size, size=min(self.n_entries, dc.size),
                                 replace=False)
        return [int(p) for p in picks]


class CentroidsEntry(EntryStrategy):
    """Enter at the nearest of ``n_centroids`` k-means cluster medoids.

    Routing cost is ``n_centroids`` distance computations per query (counted
    against NDC, as it would be in a real deployment).
    """

    def __init__(self, dc: DistanceComputer, n_centroids: int = 16,
                 n_probe: int = 2, seed: int | np.random.Generator | None = 0):
        check_positive(n_centroids, "n_centroids")
        check_positive(n_probe, "n_probe")
        self.n_probe = min(n_probe, n_centroids)
        centers, _ = kmeans(dc.data, min(n_centroids, dc.size), seed=seed)
        # snap centroids to their nearest base points
        d = pairwise_distances(centers, dc.data, dc.metric)
        self._anchor_ids = np.unique(d.argmin(axis=1))

    def entries(self, dc: DistanceComputer, query: np.ndarray) -> list[int]:
        dists = dc.to_query(self._anchor_ids, query)
        order = np.argsort(dists, kind="stable")[: self.n_probe]
        return [int(self._anchor_ids[j]) for j in order]


class MultiEntryIndex:
    """Wrap any graph index with a pluggable entry strategy."""

    def __init__(self, index: GraphIndex, strategy: EntryStrategy):
        self.index = index
        self.strategy = strategy

    @property
    def dc(self):
        return self.index.dc

    @property
    def adjacency(self):
        return self.index.adjacency

    def entry_points(self, query: np.ndarray) -> list[int]:
        return self.strategy.entries(self.index.dc, query)

    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> SearchResult:
        if ef is None:
            ef = max(k, 10)
        q = self.index.dc.prepare_query(query)
        return greedy_search(
            self.index.dc, self.index.adjacency,
            self.strategy.entries(self.index.dc, q), q, k=k, ef=ef,
            visited=self.index._visited,
            excluded=self.index.adjacency.excluded_ids(), prepared=True)
