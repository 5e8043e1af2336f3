"""Query-hardness baselines to compare Escape Hardness against (Sec. 5.2).

The paper validates EH by its correlation with actual query accuracy and
contrasts it with Steiner-hardness (Wang et al. 2024): EH is a fine-grained
*structural* matrix used to guide graph construction, whereas prior measures
give a single difficulty score.  This module implements representative
single-score baselines so the comparison can be made quantitatively:

- :func:`distance_hardness` — distance from the query to its nearest base
  point (the naive "OOD-ness" proxy).
- :func:`epsilon_hardness` — how many base points crowd the (1+ε)-ball of
  the k-th NN distance; the query-difficulty notion behind Li et al. (2020)
  and the ε-hardness family.  More crowding = more near-ties = harder.
- :func:`effort_hardness` — empirical work: the distance computations an
  index spends to reach a target recall for this query (a Steiner-hardness-
  style effort estimate, measured rather than predicted).
- :func:`eh_hardness` — the paper's Escape Hardness summarized per query
  (mean of the EH matrix, inf clipped).
"""

from __future__ import annotations

import numpy as np

from repro.core.escape_hardness import escape_hardness
from repro.distances import pairwise_distances
from repro.evalx.ground_truth import GroundTruth
from repro.utils.validation import check_matrix, check_positive


def distance_hardness(gt: GroundTruth) -> np.ndarray:
    """Per-query distance to the exact nearest neighbor (larger = harder)."""
    return np.asarray(gt.distances[:, 0], dtype=np.float64)


def epsilon_hardness(base: np.ndarray, queries: np.ndarray, gt: GroundTruth,
                     k: int, eps: float = 0.2) -> np.ndarray:
    """Number of base points within (1+eps) of the k-th NN distance, over k.

    A value near 1 means the top-k stands clear of the rest; large values
    mean a crowded frontier where greedy search must disambiguate many
    near-ties.
    """
    check_positive(eps, "eps")
    base = check_matrix(base, "base")
    queries = check_matrix(queries, "queries")
    if k > gt.ids.shape[1]:
        raise ValueError(f"k={k} exceeds stored ground truth {gt.ids.shape[1]}")
    d = pairwise_distances(queries, base, gt.metric)
    kth = gt.distances[:, k - 1]
    # distances may be negative (inner product); widen the threshold by a
    # magnitude-scaled margin in that case.
    margin = np.abs(kth) * eps + 1e-12
    counts = (d <= (kth + margin)[:, None]).sum(axis=1)
    return counts.astype(np.float64) / k


def effort_hardness(index, queries: np.ndarray, gt: GroundTruth, k: int,
                    target_recall: float = 0.9,
                    ef_grid: list[int] | None = None) -> np.ndarray:
    """NDC spent to reach the target recall per query (inf if never).

    This is the *measured* analogue of Steiner-hardness: the minimum-effort
    notion evaluated empirically on the given index.
    """
    queries = check_matrix(queries, "queries")
    if ef_grid is None:
        ef_grid = [k, 2 * k, 4 * k, 8 * k, 16 * k, 32 * k]
    gt_k = gt.top(k)
    out = np.full(queries.shape[0], np.inf)
    for i, query in enumerate(queries):
        truth = set(gt_k.ids[i].tolist())
        for ef in ef_grid:
            index.dc.reset_ndc()
            result = index.search(query, k=k, ef=ef)
            ndc = index.dc.reset_ndc()
            recall = len(set(result.ids.tolist()) & truth) / k
            if recall >= target_recall:
                out[i] = ndc
                break
    return out


def eh_hardness(index, gt: GroundTruth, k: int,
                hard_ratio: float = 3.0) -> np.ndarray:
    """Escape Hardness summarized to one score per query (paper metric)."""
    K_max = int(np.ceil(hard_ratio * k))
    if K_max > gt.ids.shape[1]:
        raise ValueError(
            f"ground truth holds {gt.ids.shape[1]} columns < K_max={K_max}")
    out = np.empty(gt.n_queries)
    for i in range(gt.n_queries):
        eh = escape_hardness(index.adjacency, gt.ids[i][:K_max], k)
        out[i] = eh.hardness_score()
    return out


def hardness_correlations(index, base: np.ndarray, queries: np.ndarray,
                          gt: GroundTruth, k: int, ef: int) -> dict:
    """Spearman-style correlation of each hardness measure with recall.

    Returns ``{measure: correlation}`` where correlation is the Pearson
    coefficient between the measure's *ranks* and per-query recall ranks
    (rank correlation is scale-free, appropriate for heterogeneous
    measures).  Recall is measured on ``index`` at the given ef; good
    hardness measures correlate negatively.
    """
    from repro.evalx.metrics import recall_per_query

    found = np.vstack([index.search(q, k=k, ef=ef).ids[:k] for q in queries])
    recalls = recall_per_query(found, gt.top(k).ids)

    measures = {
        "distance": distance_hardness(gt),
        "epsilon": epsilon_hardness(base, queries, gt, k),
        "effort": effort_hardness(index, queries, gt, k),
        "escape_hardness": eh_hardness(index, gt, k),
    }

    def rank(x):
        x = np.where(np.isinf(x), np.nanmax(np.where(np.isinf(x), np.nan, x)) * 2
                     if np.isfinite(x).any() else 1.0, x)
        return np.argsort(np.argsort(x)).astype(np.float64)

    r_recall = rank(recalls)
    out = {}
    for name, values in measures.items():
        rv = rank(values)
        if np.std(rv) < 1e-12 or np.std(r_recall) < 1e-12:
            out[name] = float("nan")
        else:
            out[name] = float(np.corrcoef(rv, r_recall)[0, 1])
    return out
