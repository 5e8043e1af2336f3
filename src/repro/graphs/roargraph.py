"""RoarGraph (Chen et al. 2024) — the paper's primary comparator.

RoarGraph bridges the base/query distribution gap in three steps:

1. **Query-base bipartite graph** — compute each historical query's exact
   nearest base neighbors (RoarGraph *requires* exact NN; the paper under
   reproduction highlights this as a construction-time weakness).
2. **Projection** — instead of inserting query points, each query is
   projected onto its nearest base point (the pivot), and the pivot receives
   the query's remaining neighbors as candidate out-edges; candidates are
   occlusion-pruned to the degree budget.  Reverse edges are added while
   capacity allows so the bipartite information flows both ways.
3. **Connectivity enhancement** — each node tops up its neighbor list from a
   base k-NN graph and neighbors-of-neighbors, and a spanning pass from the
   medoid guarantees global reachability.

Search enters at the medoid.  The implementation keeps RoarGraph's essential
behavior the paper's comparison turns on: edges follow the *query*
distribution at pivots, the build needs many historical queries with exact
ground truth, and a workload change requires full reconstruction.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.distances import Metric
from repro.evalx.ground_truth import compute_ground_truth
from repro.graphs.base import GraphIndex
from repro.graphs.kgraph import brute_force_knn_graph
from repro.graphs.pruning import rng_prune_backfill
from repro.utils.validation import check_matrix, check_positive


class RoarGraph(GraphIndex):
    """Projected bipartite graph for cross-modal ANNS.

    Parameters
    ----------
    train_queries:
        Historical queries whose distribution shapes the graph.
    M:
        Out-degree budget per node.
    n_query_neighbors:
        Exact base neighbors computed per historical query (the paper's
        N_q; the bipartite fan-out).
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        train_queries: np.ndarray,
        M: int = 32,
        n_query_neighbors: int = 32,
        knn_k: int = 16,
    ):
        check_positive(M, "M")
        check_positive(n_query_neighbors, "n_query_neighbors")
        super().__init__(data, metric)
        self.M = M
        self.n_query_neighbors = min(n_query_neighbors, self.size - 1)
        self.knn_k = min(knn_k, self.size - 1)
        train_queries = check_matrix(train_queries, "train_queries")
        self._build(train_queries)

    def _build(self, train_queries: np.ndarray) -> None:
        # Step 1: exact bipartite neighbors (the expensive preprocessing the
        # paper contrasts NGFix's approximate mode against).
        gt = compute_ground_truth(
            self.dc.data, train_queries, self.n_query_neighbors, self.metric)

        # Step 2: projection — pivot = query's 1-NN; candidates = the rest.
        candidates: dict[int, set[int]] = {}
        for row in gt.ids:
            pivot = int(row[0])
            candidates.setdefault(pivot, set()).update(int(v) for v in row[1:])

        knn = brute_force_knn_graph(self.dc.data, self.knn_k, self.metric)

        # Per-node occlusion pruning over the candidates and the k-NN graph.
        for u in range(self.size):
            pool = set(candidates.get(u, ()))
            pool.update(int(v) for v in knn[u, : self.knn_k // 2])
            pool.discard(u)
            self.adjacency.set_base_neighbors(
                u, rng_prune_backfill(self.dc, u, pool, self.M))

        # Reverse bipartite edges while capacity allows.
        for u in range(self.size):
            for v in self.adjacency.base_neighbors(u):
                if self.adjacency.base_degree(v) < self.M:
                    self.adjacency.add_base_edge(v, u)

        # Step 3: connectivity enhancement via neighbors-of-neighbors top-up.
        for u in range(self.size):
            neigh = self.adjacency.base_neighbors(u)
            if len(neigh) >= self.M // 2:
                continue
            pool = set(neigh)
            for v in neigh:
                pool.update(self.adjacency.base_neighbors(v))
            pool.update(int(v) for v in knn[u])
            pool.discard(u)
            self.adjacency.set_base_neighbors(
                u, rng_prune_backfill(self.dc, u, pool, self.M))

        self._spanning_connect(knn)

    def _spanning_connect(self, knn: np.ndarray) -> None:
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
            queue = deque([u])
            reached[u] = True
            while queue:
                w = queue.popleft()
                for v in self.adjacency.neighbors(w):
                    if not reached[v]:
                        reached[v] = True
                        queue.append(int(v))
