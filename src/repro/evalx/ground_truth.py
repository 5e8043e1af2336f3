"""Exact k-NN ground truth via batched brute force.

This is the paper's preprocessing method (1) in Sec. 5.1: accumulate queries
into batches and turn exact-NN computation into matrix multiplication.  It is
used both for evaluation ground truth and (optionally) for NGFix
preprocessing when exact NNs are requested.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.utils.parallel import chunk_bounds, parallel_map
from repro.utils.validation import check_matrix, check_positive


@dataclasses.dataclass
class GroundTruth:
    """Exact nearest neighbors for a query set.

    ``ids[i, j]`` is the id of query ``i``'s (j+1)-th nearest base vector and
    ``distances[i, j]`` the corresponding distance (metric convention of
    :mod:`repro.distances`: smaller is closer).
    """

    ids: np.ndarray
    distances: np.ndarray
    metric: Metric
    k: int

    def __post_init__(self):
        if self.ids.shape != self.distances.shape:
            raise ValueError("ids and distances shapes differ")
        if self.ids.shape[1] < self.k:
            raise ValueError(f"ground truth holds {self.ids.shape[1]} < k={self.k} columns")

    @property
    def n_queries(self) -> int:
        return self.ids.shape[0]

    def top(self, k: int) -> "GroundTruth":
        """A view truncated to the top ``k`` neighbors."""
        check_positive(k, "k")
        if k > self.ids.shape[1]:
            raise ValueError(f"requested k={k} exceeds stored {self.ids.shape[1]}")
        return GroundTruth(self.ids[:, :k], self.distances[:, :k], self.metric, k)

    def take(self, indices) -> "GroundTruth":
        """A view restricted to the given query rows (for query subsets)."""
        indices = np.asarray(indices)
        return GroundTruth(self.ids[indices], self.distances[indices],
                           self.metric, self.k)


def exact_top_k(
    base: np.ndarray,
    queries: np.ndarray,
    k: int,
    metric: Metric,
    batch_size: int,
    skip_self: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` ``(ids, distances)`` of each query row, sorted.

    Blocks of ``batch_size`` queries are scored against the full base with
    one matrix product each, on the process's thread pool
    (:func:`~repro.utils.parallel.parallel_map`).  The blocks are the same
    at any thread budget, so every GEMM sees identical inputs and the
    result is bit-identical to a one-thread run.  ``skip_self`` is for
    ``queries`` that *are* ``base``: row ``i`` never lists itself.
    """
    def block(bounds: tuple[int, int]):
        start, stop = bounds
        dist_block = pairwise_distances(queries[start:stop], base, metric)
        if skip_self:
            dist_block[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.argpartition(dist_block, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(dist_block, part, axis=1)
        order = np.argsort(part_d, axis=1, kind="stable")
        return (np.take_along_axis(part, order, axis=1),
                np.take_along_axis(part_d, order, axis=1))

    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    distances = np.empty((queries.shape[0], k), dtype=np.float64)
    bounds = chunk_bounds(queries.shape[0], batch_size)
    for (start, stop), (block_ids, block_d) in zip(
            bounds, parallel_map(block, bounds)):
        ids[start:stop] = block_ids
        distances[start:stop] = block_d
    return ids, distances


def compute_ground_truth(
    base: np.ndarray,
    queries: np.ndarray,
    k: int,
    metric: Metric | str,
    batch_size: int = 512,
) -> GroundTruth:
    """Exact top-``k`` neighbors of each query by batched brute force.

    Batches of ``batch_size`` queries (the paper's example batch size) are
    scored against the full base via one matrix product, then partially
    sorted with ``argpartition`` so cost is O(n + k log k) per query after the
    product (see :func:`exact_top_k`).
    """
    metric = Metric.parse(metric)
    base = check_matrix(base, "base")
    queries = check_matrix(queries, "queries")
    check_positive(k, "k")
    if k > base.shape[0]:
        raise ValueError(f"k={k} exceeds base size {base.shape[0]}")
    ids, distances = exact_top_k(base, queries, k, metric, batch_size)
    return GroundTruth(ids=ids, distances=distances, metric=metric, k=k)
