"""NSW (Malkov et al. 2014) — the navigable-small-world predecessor of HNSW.

Included for completeness of the baseline family (Sec. 3's lineage):
points are inserted sequentially and linked bidirectionally to their ``f``
nearest points found by searching the graph built so far — no occlusion
pruning, no hierarchy.  Long-range links arise organically because early
insertions connect across what later becomes dense space.  Degrees are
unbounded by construction, so NSW graphs are denser than HNSW's and searches
cost more NDC at equal quality — the gap HNSW's pruning closed.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric
from repro.graphs.base import GraphIndex, medoid_id
from repro.graphs.search import greedy_search
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_positive


class NSW(GraphIndex):
    """Navigable Small World graph.

    Parameters
    ----------
    f:
        Number of bidirectional links per inserted point.
    ef_construction:
        Beam width for the insertion-time search.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        f: int = 10,
        ef_construction: int = 40,
        seed: int | np.random.Generator | None = 0,
    ):
        check_positive(f, "f")
        check_positive(ef_construction, "ef_construction")
        super().__init__(data, metric)
        self.f = f
        self.ef_construction = max(ef_construction, f)
        self._rng = ensure_rng(seed)
        self._medoid: int | None = None
        order = self._rng.permutation(self.size)
        for i in order:
            self._insert(int(i))

    def _insert(self, new_id: int) -> None:
        if not hasattr(self, "_inserted"):
            self._inserted: list[int] = []
        if not self._inserted:
            self._inserted.append(new_id)
            return
        entry = self._inserted[0]
        result = greedy_search(
            self.dc, self.adjacency, [entry],
            self.dc.data[new_id], k=self.f, ef=self.ef_construction,
            visited=self._visited, prepared=True)
        for v in result.ids.tolist():
            if v != new_id:
                self.adjacency.add_base_edge(new_id, v)
                self.adjacency.add_base_edge(v, new_id)
        self._inserted.append(new_id)

    def medoid(self) -> int:
        if self._medoid is None:
            self._medoid = medoid_id(self.dc)
        return self._medoid

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self.medoid()]
