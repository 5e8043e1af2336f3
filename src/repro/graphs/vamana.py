"""Vamana (DiskANN) and RobustVamana (OOD-DiskANN) — Sec. 3 comparators.

Vamana (Subramanya et al. 2019) builds a flat graph by two passes of
greedy-search-then-α-prune over a random initial graph; the α > 1 occlusion
margin keeps longer detour edges than the RNG rule, giving robust routing.

RobustVamana (Jaiswal et al. 2022) is the paper's *other* OOD-aware
baseline: it inserts historical **query points into the graph as navigation
nodes** — they route searches into the regions OOD queries care about but
are excluded from result sets.  The paper's critique (Sec. 3): the query
nodes lengthen search paths, so the improvement is small; NGFix instead adds
base-to-base edges.  Both behaviors are reproducible here.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric
from repro.graphs.base import GraphIndex, medoid_id
from repro.graphs.pruning import alpha_prune
from repro.graphs.search import greedy_search
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix, check_positive


class Vamana(GraphIndex):
    """DiskANN's flat graph index.

    Parameters
    ----------
    R:
        Maximum out-degree.
    L:
        Search list size used during construction.
    alpha:
        Pruning relaxation; pass 1 runs with α=1, pass 2 with this value.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        R: int = 32,
        L: int = 64,
        alpha: float = 1.2,
        seed: int | np.random.Generator | None = 0,
    ):
        check_positive(R, "R")
        check_positive(L, "L")
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        super().__init__(data, metric)
        self.R = R
        self.L = max(L, R)
        self.alpha = alpha
        self._rng = ensure_rng(seed)
        self._medoid = medoid_id(self.dc)
        self._build()

    def _random_init(self) -> None:
        n = self.size
        for u in range(n):
            picks = self._rng.choice(n - 1, size=min(self.R, n - 1),
                                     replace=False)
            picks[picks >= u] += 1
            self.adjacency.set_base_neighbors(u, picks.tolist())

    def _robust_prune(self, u: int, pool, alpha: float) -> None:
        pool = np.asarray(list(pool), dtype=np.int64)
        pool = pool[pool != u]
        if pool.size == 0:
            return
        self.adjacency.set_base_neighbors(
            u, alpha_prune(self.dc, u, pool, self.R, alpha=alpha))

    def _pass(self, alpha: float, order: np.ndarray) -> None:
        for u in order:
            u = int(u)
            result = greedy_search(
                self.dc, self.adjacency, [self._medoid],
                self.dc.data[u], k=self.L, ef=self.L, visited=self._visited,
                collect_visited=True, prepared=True)
            pool = set(result.visited_ids.tolist())
            pool.update(self.adjacency.base_neighbors(u))
            self._robust_prune(u, pool, alpha)
            # Reverse edges with overflow pruning.
            for v in self.adjacency.base_neighbors(u):
                neigh_v = self.adjacency.base_neighbors(v)
                if u in neigh_v:
                    continue
                if len(neigh_v) < self.R:
                    self.adjacency.add_base_edge(v, u)
                else:
                    self._robust_prune(v, set(neigh_v) | {u}, alpha)

    def _build(self) -> None:
        self._random_init()
        order = self._rng.permutation(self.size)
        self._pass(1.0, order)
        if self.alpha > 1.0:
            self._pass(self.alpha, order)

    def medoid(self) -> int:
        """The fixed entry point."""
        return self._medoid

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self._medoid]


class RobustVamana(Vamana):
    """OOD-DiskANN: historical queries join the graph as navigators.

    The index is built over ``base ∪ train_queries``; query nodes are
    tombstoned, so greedy search routes *through* them (they bridge the
    distribution gap) but never returns them.  ``n_base`` marks the id
    boundary: ids below it are base vectors, at or above it query nodes.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        train_queries: np.ndarray,
        R: int = 32,
        L: int = 64,
        alpha: float = 1.2,
        seed: int | np.random.Generator | None = 0,
    ):
        data = check_matrix(data, "data")
        train_queries = check_matrix(train_queries, "train_queries")
        if train_queries.shape[1] != data.shape[1]:
            raise ValueError("train_queries dimension differs from data")
        self.n_base = data.shape[0]
        self.n_navigators = train_queries.shape[0]
        joint = np.vstack([data, train_queries])
        super().__init__(joint, metric, R=R, L=L, alpha=alpha, seed=seed)
        # Navigator nodes route but are never returned (lazy-delete style).
        self.adjacency.tombstones.update(
            range(self.n_base, self.n_base + self.n_navigators))

    def medoid(self) -> int:
        return self._medoid

    def stats(self) -> dict:
        out = super().stats()
        out["n_navigators"] = self.n_navigators
        return out
