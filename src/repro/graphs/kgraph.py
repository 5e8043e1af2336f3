"""k-NN graph construction: exact (batched brute force) and NN-descent.

The k-NN graph is the raw material for NSG/τ-MNG construction and the exact
variant doubles as ground truth for base-to-base neighborhoods.  NN-descent
(Dong et al.) is provided for larger corpora: it converges to a high-recall
approximate k-NN graph in a few neighbor-of-neighbor refinement rounds
without any O(n²) pass.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.evalx.ground_truth import exact_top_k
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix, check_positive


def brute_force_knn_graph(
    data: np.ndarray,
    k: int,
    metric: Metric | str,
    batch_size: int = 256,
) -> np.ndarray:
    """Exact k-NN lists for every base point (self excluded); shape (n, k)."""
    data = check_matrix(data, "data")
    check_positive(k, "k")
    metric = Metric.parse(metric)
    n = data.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    return exact_top_k(data, data, k, metric, batch_size, skip_self=True)[0]


def nn_descent_knn_graph(
    data: np.ndarray,
    k: int,
    metric: Metric | str,
    n_iters: int = 8,
    sample_rate: float = 0.8,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Approximate k-NN graph via NN-descent; shape (n, k).

    Starts from random neighbor lists and repeatedly proposes
    neighbors-of-neighbors, keeping each point's best k.  Terminates early
    when an iteration improves fewer than 0.1% of entries.
    """
    data = check_matrix(data, "data")
    check_positive(k, "k")
    metric = Metric.parse(metric)
    rng = ensure_rng(seed)
    n = data.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")

    # neighbor lists as (distance, id) arrays kept sorted ascending
    ids = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        choices = rng.choice(n - 1, size=k, replace=False)
        choices[choices >= i] += 1  # skip self
        ids[i] = choices
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        dists[i] = pairwise_distances(data[i:i + 1], data[ids[i]], metric)[0]
    order = np.argsort(dists, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)

    for _ in range(n_iters):
        updates = 0
        for i in range(n):
            if rng.random() > sample_rate:
                continue
            # candidate pool: neighbors of neighbors (forward direction)
            pool = np.unique(ids[ids[i]].ravel())
            pool = pool[pool != i]
            known = set(ids[i].tolist())
            pool = np.array([c for c in pool.tolist() if c not in known], dtype=np.int64)
            if pool.size == 0:
                continue
            cand_d = pairwise_distances(data[i:i + 1], data[pool], metric)[0]
            worst = dists[i, -1]
            better = cand_d < worst
            if not better.any():
                continue
            merged_ids = np.concatenate([ids[i], pool[better]])
            merged_d = np.concatenate([dists[i], cand_d[better]])
            top = np.argsort(merged_d, kind="stable")[:k]
            new_ids = merged_ids[top]
            updates += int((new_ids != ids[i]).sum())
            ids[i] = new_ids
            dists[i] = merged_d[top]
        if updates < max(1, int(0.001 * n * k)):
            break
    return ids
