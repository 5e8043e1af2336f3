"""HNSW (Malkov & Yashunin 2020) — baseline and NGFix*'s default base graph.

Full implementation: exponential level assignment, per-layer greedy descent,
RNG-heuristic neighbor selection with pruned-connection backfill, and
bidirectional linking with degree shrinking.  Two details follow the paper's
experimental setup (Sec. 6.1):

- ``single_layer=True`` builds only the bottom layer and searches from the
  dataset medoid — the paper uses just HNSW's base layer as the NGFix base
  graph because upper layers contribute little in high dimensions.
- Incremental :meth:`insert` is supported after construction, which the
  maintenance experiments (Fig. 18) rely on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances import Metric
from repro.graphs.base import GraphIndex
from repro.graphs.insertion import BottomLayer
from repro.graphs.pruning import rng_prune, rng_prune_backfill
from repro.graphs.search import greedy_search
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_positive

_EMPTY = np.empty(0, dtype=np.int64)


class HNSW(BottomLayer, GraphIndex):
    """Hierarchical Navigable Small World index.

    The bottom layer — all of the index in ``single_layer`` mode — is
    :class:`~repro.graphs.insertion.BottomLayer`'s routine over the
    adjacency store; the upper layers (dict-of-lists, 1/M of the nodes) are
    walked here on the reference executor.

    Parameters
    ----------
    data, metric:
        Base vectors and similarity metric.
    M:
        Target out-degree on upper layers; the bottom layer allows ``2 * M``.
    ef_construction:
        Beam width while collecting link candidates during insertion.
    single_layer:
        Build only the bottom layer (all nodes at level 0) and enter at the
        medoid, as the paper does for the NGFix base graph.
    keep_pruned:
        Backfill pruned candidates up to the degree budget (hnswlib's
        ``keepPrunedConnections`` heuristic).
    seed:
        Level-assignment randomness.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        M: int = 16,
        ef_construction: int = 100,
        single_layer: bool = False,
        keep_pruned: bool = True,
        seed: int | np.random.Generator | None = 0,
    ):
        check_positive(M, "M")
        check_positive(ef_construction, "ef_construction")
        super().__init__(data, metric)
        self.M = M
        self.M0 = 2 * M
        self.ef_construction = ef_construction
        self.single_layer = single_layer
        self.keep_pruned = keep_pruned
        self._rng = ensure_rng(seed)
        self._mult = 1.0 / math.log(M)
        # hnswlib's ``keepPrunedConnections``: backfill pruned candidates
        # up to the degree budget.
        self._select = rng_prune_backfill if keep_pruned else rng_prune
        self._levels: list[int] = []
        self._upper: list[dict[int, list[int]]] = []  # layers 1..max_level
        self._entry: int | None = None

        for i in range(self.dc.size):
            self._insert_node(i)

    # -- construction -----------------------------------------------------

    def _assign_level(self) -> int:
        if self.single_layer:
            return 0
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._mult)

    def _descend(self, q: np.ndarray, start: int, from_level: int,
                 to_level: int) -> int:
        """Greedy ef=1 walk from ``from_level`` down to ``to_level`` (exclusive)."""
        cur = start
        cur_d = self.dc.one_to_query(cur, q)
        for level in range(from_level, to_level, -1):
            layer = self._upper[level - 1]
            improved = True
            while improved:
                improved = False
                neigh = layer.get(cur)
                if not neigh:
                    break
                arr = np.array(neigh, dtype=np.int64)
                dists = self.dc.to_query(arr, q)
                j = int(np.argmin(dists))
                if dists[j] < cur_d:
                    cur, cur_d = int(arr[j]), float(dists[j])
                    improved = True
        return cur

    def _insert_upper(self, new_id: int, q: np.ndarray, eps: list[int],
                      level: int) -> list[int]:
        """Link ``new_id`` into upper layer ``level``; returns the
        candidates found (the next layer's entries)."""
        layer = self._upper[level - 1]

        def neighbors(u: int) -> np.ndarray:
            lst = layer.get(u)
            return np.array(lst, dtype=np.int64) if lst else _EMPTY

        result = greedy_search(
            self.dc, neighbors, eps, q, k=self.ef_construction,
            ef=self.ef_construction, visited=self._visited, prepared=True)
        keep = result.ids != new_id
        cand_ids = result.ids[keep]
        selected = self._select(self.dc, new_id, cand_ids, self.M,
                                distances=result.distances[keep])
        layer[new_id] = list(selected)
        for v in selected:
            neigh = layer.setdefault(v, [])
            neigh.append(new_id)
            if len(neigh) > self.M + self._shrink_slack:
                layer[v] = self._select(self.dc, v, np.array(neigh), self.M)
        return cand_ids.tolist() or eps

    def _insert_node(self, new_id: int) -> None:
        level = self._assign_level()
        self._levels.append(level)
        while len(self._upper) < level:
            self._upper.append({})
        for lv in range(1, level + 1):
            self._upper[lv - 1].setdefault(new_id, [])

        if self._entry is None:
            self._entry = new_id
            return
        q = self.dc.data[new_id]
        entry = self._entry
        top = self._levels[self._entry]
        if top > level:
            entry = self._descend(q, entry, top, level)

        eps = [entry]
        for lv in range(min(level, top), 0, -1):
            eps = self._insert_upper(new_id, q, eps, lv)
        self._insert_bottom(new_id, eps, self._select)

        if level > top:
            self._entry = new_id

    # -- public API ---------------------------------------------------------

    def insert(self, vector: np.ndarray) -> int:
        """Insert one new vector, returning its id (paper Sec. 5.5.1).

        In single-layer mode the insert enters where searches do, at the
        navigating node as it stands before the row lands — never at a node
        a deletion has since stripped of its edges.
        """
        if self.single_layer:
            self._entry = self.medoid()
        new_id = self.dc.append(vector)
        self.adjacency.grow(1)
        self._insert_node(new_id)
        return new_id

    def entry_points(self, query: np.ndarray) -> list[int]:
        if self.single_layer or not self._upper:
            return [self.medoid()]
        top = self._levels[self._entry]
        return [self._descend(query, self._entry, top, 0)]

    def max_level(self) -> int:
        """Highest occupied layer."""
        return max(self._levels) if self._levels else 0
