"""NSG (Fu et al. 2019) — Navigating Spreading-out Graph baseline.

Construction follows the paper's pipeline: build a k-NN graph, then for each
node collect candidates by greedy-searching the node's own vector from the
medoid (recording everything visited), apply the MRNG occlusion rule capped
at degree ``R``, and finally grow a spanning tree from the medoid so every
node is reachable.  Search always enters at the medoid.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.distances import Metric
from repro.graphs.base import GraphIndex
from repro.graphs.csr import CSRGraphView
from repro.graphs.kgraph import brute_force_knn_graph
from repro.graphs.pruning import mrng_prune
from repro.graphs.search import greedy_search
from repro.utils.validation import check_positive


class NSG(GraphIndex):
    """Navigating Spreading-out Graph.

    Parameters
    ----------
    R:
        Maximum out-degree of the final graph.
    L:
        Search list size used while collecting pruning candidates.
    knn_k:
        Neighbor count of the bootstrap k-NN graph.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        R: int = 32,
        L: int = 64,
        knn_k: int = 32,
    ):
        check_positive(R, "R")
        check_positive(L, "L")
        super().__init__(data, metric)
        self.R = R
        self.L = max(L, R)
        self.knn_k = min(knn_k, self.size - 1)
        self._build()

    def _prune_rule(self, u: int, pool) -> list[int]:
        """Edge-selection rule applied to a node's candidate pool.

        Subclasses swap the occlusion rule (τ-MNG) without re-implementing
        the construction pipeline.
        """
        return mrng_prune(self.dc, u, pool, self.R)

    def _build(self) -> None:
        knn = brute_force_knn_graph(self.dc.data, self.knn_k, self.metric)
        # Candidate collection + pruning per node: each node searches its
        # own vector over the static k-NN graph, frozen as a CSR so the
        # native executor walks it.
        n, width = knn.shape
        knn_graph = CSRGraphView(
            np.arange(0, n * width + 1, width, dtype=np.int32),
            knn.astype(np.int32).ravel())
        for u in range(self.size):
            result = greedy_search(
                self.dc, knn_graph, [self.medoid()], self.dc.data[u],
                k=self.L, ef=self.L, visited=self._visited,
                collect_visited=True, prepared=True,
            )
            pool = np.unique(np.concatenate([result.visited_ids, knn[u]]))
            self.adjacency.set_base_neighbors(
                u, self._prune_rule(u, pool[pool != u]))

        self._inter_insert()
        self._ensure_connected(knn)

    def _inter_insert(self) -> None:
        """NSG's reverse-edge pass: every selected edge u->v offers u as a
        neighbor of v, re-pruning v's list when it overflows R.  Without
        this pass clustered data yields near-tree graphs with poor recall."""
        for u in range(self.size):
            for v in self.adjacency.base_neighbors(u):
                neigh_v = self.adjacency.base_neighbors(v)
                if u in neigh_v:
                    continue
                if len(neigh_v) < self.R:
                    self.adjacency.add_base_edge(v, u)
                else:
                    merged = self._prune_rule(v, neigh_v + [u])
                    if u in merged:
                        self.adjacency.set_base_neighbors(v, merged)

    def _ensure_connected(self, knn: np.ndarray) -> None:
        """Spanning-tree step: link unreachable nodes from their nearest
        reached k-NN (or the medoid as a last resort), then re-expand."""
        reached = np.zeros(self.size, dtype=bool)
        medoid = self.medoid()
        queue = deque([medoid])
        reached[medoid] = True
        while queue:
            u = queue.popleft()
            for v in self.adjacency.neighbors(u):
                if not reached[v]:
                    reached[v] = True
                    queue.append(int(v))
        for u in range(self.size):
            if reached[u]:
                continue
            anchors = [int(v) for v in knn[u] if reached[v]]
            anchor = anchors[0] if anchors else medoid
            self.adjacency.add_base_edge(anchor, u)
            # Everything reachable from u is now reachable from the tree.
            queue = deque([u])
            reached[u] = True
            while queue:
                w = queue.popleft()
                for v in self.adjacency.neighbors(w):
                    if not reached[v]:
                        reached[v] = True
                        queue.append(int(v))
