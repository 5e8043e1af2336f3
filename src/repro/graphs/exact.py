"""Exact proximity graphs at toy scale, for theory checks and ablations.

These O(n² · degree) constructions are only meant for corpora of a few
hundred points.  They back the paper's theoretical discussion (Sec. 3-4):

- :func:`exact_rng` — undirected Relative Neighborhood Graph (empty-lune
  rule), used by the Fig. 13(c) "reconstruct RNG" ablation.
- :func:`exact_mrng` — directed Monotonic RNG (Fu et al. 2019): per node,
  candidates in ascending distance, kept unless an already-kept neighbor
  lies in the lune.  Greedy search on MRNG provably finds the exact NN of
  any query coinciding with a base point.
- :func:`exact_knn_graph` — thin wrapper over the brute-force k-NN builder.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.graphs.kgraph import brute_force_knn_graph
from repro.utils.validation import check_matrix


def exact_knn_graph(data: np.ndarray, k: int, metric: Metric | str) -> np.ndarray:
    """Exact k-NN lists (alias of the batched brute-force builder)."""
    return brute_force_knn_graph(data, k, metric)


def exact_rng(data: np.ndarray, metric: Metric | str = Metric.L2) -> list[set[int]]:
    """Undirected RNG: edge (u, v) iff no w has max(d(u,w), d(w,v)) < d(u,v)."""
    data = check_matrix(data, "data")
    metric = Metric.parse(metric)
    n = data.shape[0]
    dist = pairwise_distances(data, data, metric)
    edges: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            duv = dist[u, v]
            occluders = np.maximum(dist[u], dist[v]) < duv
            occluders[u] = occluders[v] = False
            if not occluders.any():
                edges[u].add(v)
                edges[v].add(u)
    return edges


def exact_mrng(data: np.ndarray, metric: Metric | str = Metric.L2) -> list[list[int]]:
    """Directed MRNG out-neighbor lists (Fu et al. 2019 Definition 4)."""
    data = check_matrix(data, "data")
    metric = Metric.parse(metric)
    n = data.shape[0]
    dist = pairwise_distances(data, data, metric)
    out: list[list[int]] = []
    for u in range(n):
        order = np.argsort(dist[u], kind="stable")
        kept: list[int] = []
        for v in order:
            v = int(v)
            if v == u:
                continue
            duv = dist[u, v]
            # v is skipped iff some kept w lies strictly inside the lune.
            if any(dist[w, v] < duv and dist[u, w] < duv for w in kept):
                continue
            kept.append(v)
        out.append(kept)
    return out


def delaunay_graph(points: np.ndarray) -> list[set[int]]:
    """Undirected Delaunay adjacency for low-dimensional points (SciPy).

    The theoretical anchor of Sec. 3: greedy search on the Delaunay graph
    provably finds the exact nearest neighbor of *any* query, and Theorem 3
    shows removing any DG edge creates a query whose neighborhood graph
    falls apart — the argument for why per-query (historical) fixing is the
    only tractable route in high dimensions, where DG densifies toward the
    complete graph.
    """
    try:  # imported lazily: only toy scale, and SciPy is a test extra
        from scipy.spatial import Delaunay
    except ImportError as exc:
        raise ImportError("delaunay_graph needs SciPy, which ships in the "
                          "'test' extra: pip install 'repro[test]'") from exc

    points = check_matrix(points, "points", dtype=np.float64)
    if points.shape[1] > 3:
        raise ValueError("delaunay_graph is for 2-D/3-D theory checks only")
    tri = Delaunay(points)
    edges: list[set[int]] = [set() for _ in range(points.shape[0])]
    for simplex in tri.simplices:
        for i in range(len(simplex)):
            for j in range(i + 1, len(simplex)):
                a, b = int(simplex[i]), int(simplex[j])
                edges[a].add(b)
                edges[b].add(a)
    return edges


def is_strongly_connected(neighbors: list, n: int, start: int = 0) -> bool:
    """True if every node is reachable from ``start`` (directed BFS)."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(int(v))
    return len(seen) == n
