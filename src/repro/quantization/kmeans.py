"""Lloyd's k-means with k-means++ seeding (NumPy, no sklearn): the PQ
codebooks, the IVF cells and the centroid entry points.  A Lloyd step adds
squared distances one coordinate at a time into one ``(n, k)`` float64
buffer -- temporaries stay near two such buffers at any dimension, and below
8 coordinates the sum is the broadcast's own left-to-right one, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix, check_positive


def _kmeanspp_init(data: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D^2 sampling."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[rng.integers(n)]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-12:  # all points identical to chosen centers
            centers[j:] = centers[0]
            break
        probs = closest_sq / total
        centers[j] = data[rng.choice(n, p=probs)]
        dist_sq = ((data - centers[j]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def kmeans(
    data: np.ndarray,
    k: int,
    n_iters: int = 25,
    seed: int | np.random.Generator | None = 0,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``data`` into ``k`` centers; returns (centers, assignments).

    An empty cluster takes the worst-served point of a cluster with two or
    more members before the means are taken, so ``k`` centers come back.
    """
    data = check_matrix(data, "data", dtype=np.float64)
    check_positive(k, "k")
    n = data.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    centers = _kmeanspp_init(data, k, ensure_rng(seed))
    cols = np.ascontiguousarray(data.T)
    dist, diff = np.empty((n, k)), np.empty((n, k))
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iters):
        dist.fill(0.0)
        for col, center_col in zip(cols, centers.T):
            dist += np.square(np.subtract.outer(col, center_col, out=diff), out=diff)
        assignments = dist.argmin(axis=1)
        counts = np.bincount(assignments, minlength=k)
        for j in np.flatnonzero(counts == 0):
            served = dist[np.arange(n), assignments]
            worst = int(np.where(counts[assignments] > 1, served, -1.0).argmax())
            counts[assignments[worst]] -= 1
            counts[j], assignments[worst] = 1, j
        new_centers = np.stack([np.bincount(assignments, col, k)
                                for col in cols], axis=1) / counts[:, None]
        shift = np.cumsum(((new_centers - centers) ** 2).sum(axis=1))[-1]
        centers = new_centers
        if shift < tol:
            break
    return centers.astype(np.float32), assignments
