"""Two-phase search diagnostics (Sec. 4, Fig. 2).

The paper splits greedy search into (1) traveling from the entry point to
the query's vicinity and (2) exploring within the vicinity, observing that
phase 1 almost always succeeds (recall > 0) while phase 2 loses NNs to
missing edges.  These helpers quantify both phenomena for any index:

- :func:`phase_reach_stats` — fraction of queries whose search reached the
  vicinity at all, and the recall distribution (Fig. 2(b)).
- :func:`recall_histogram` — per-query recall bucketed the way the paper
  plots it.
- :func:`qng_recall_correlation` — QNG connectivity vs recall (Fig. 4(a)).
"""

from __future__ import annotations

import numpy as np

from repro.core.qng import build_qng, average_reachable
from repro.evalx.ground_truth import GroundTruth
from repro.evalx.metrics import recall_per_query
from repro.graphs.search import greedy_search


def recall_histogram(recalls: np.ndarray, edges=(0.0, 0.25, 0.5, 0.75, 0.9, 1.0)) -> dict:
    """Fraction of queries per recall bucket; the last bucket is [0.9, 1.0]."""
    recalls = np.asarray(recalls, dtype=np.float64)
    out = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi == edges[-1]:
            mask = (recalls >= lo) & (recalls <= hi)
            label = f"[{lo:.2f}, {hi:.2f}]"
        else:
            mask = (recalls >= lo) & (recalls < hi)
            label = f"[{lo:.2f}, {hi:.2f})"
        out[label] = float(mask.mean())
    return out


def phase_reach_stats(index, queries: np.ndarray, gt: GroundTruth, k: int,
                      ef: int) -> dict:
    """Run all queries once; report phase-1 success rate and recall stats.

    "Reached vicinity" uses the paper's operational test: the search found
    at least one true top-k neighbor (recall > 0) — equivalently, phase 2
    began.
    """
    queries = np.asarray(queries, dtype=np.float32)
    gt_k = gt.top(k)
    found = np.vstack([index.search(q, k=k, ef=ef).ids[:k] for q in queries])
    recalls = recall_per_query(found, gt_k.ids)
    return {
        "reached_vicinity_fraction": float((recalls > 0).mean()),
        "mean_recall": float(recalls.mean()),
        "recalls": recalls,
        "histogram": recall_histogram(recalls),
    }


def discovery_edge_stats(index, queries: np.ndarray, k: int, ef: int) -> dict:
    """How results are *discovered*: via base edges or NGFix extra edges.

    Replays :func:`~repro.graphs.search.greedy_search` through a
    ``neighbors_fn`` that records, for every node, the edge that first
    reached it; then classifies the discovery edges of the returned top-k.
    A healthy fixed index discovers a meaningful share of results through
    extra edges on the workload it was fixed for — direct evidence the
    added edges carry traffic, not just bytes.

    Works on any object exposing ``dc``, ``adjacency`` and
    ``entry_points`` (indexes and NGFixer alike).
    """
    dc = index.dc
    adjacency = index.adjacency
    total_results = 0
    via_extra = 0
    via_entry = 0
    for query in np.atleast_2d(np.asarray(queries, dtype=np.float32)):
        q = dc.prepare_query(query)
        entries = index.entry_points(q)
        parent: dict[int, int | None] = {int(e): None for e in entries}

        def expand(u: int) -> np.ndarray:
            neighbors = adjacency.neighbors(u)
            for v in neighbors.tolist():
                parent.setdefault(v, u)
            return neighbors

        # A plain callable walks the live store on the reference executor.
        found = greedy_search(dc, expand, entries, q, k=k, ef=ef,
                              excluded=adjacency.excluded_ids(),
                              prepared=True)
        for node in found.ids.tolist():
            total_results += 1
            origin = parent[node]
            if origin is None:
                via_entry += 1
            elif node in adjacency.extra_neighbors(origin):
                via_extra += 1
    return {
        "total_results": total_results,
        "via_extra_edges": via_extra,
        "via_entry": via_entry,
        "extra_fraction": via_extra / max(total_results, 1),
    }


def qng_recall_correlation(index, queries: np.ndarray, gt: GroundTruth, k: int,
                           ef: int) -> dict:
    """Per-query QNG average-reachability vs recall (Fig. 4(a)).

    Returns the two aligned arrays plus their Pearson correlation; the paper
    finds a strong positive relationship (poorly connected neighborhood ->
    low recall).
    """
    queries = np.asarray(queries, dtype=np.float32)
    gt_k = gt.top(k)
    reach = np.empty(queries.shape[0])
    found = np.empty((queries.shape[0], k), dtype=np.int64)
    for i, query in enumerate(queries):
        adj = build_qng(index.adjacency.neighbors, gt_k.ids[i])
        reach[i] = average_reachable(adj)
        found[i] = index.search(query, k=k, ef=ef).ids[:k]
    recalls = recall_per_query(found, gt_k.ids)
    if np.std(reach) < 1e-12 or np.std(recalls) < 1e-12:
        corr = float("nan")
    else:
        corr = float(np.corrcoef(reach, recalls)[0, 1])
    return {
        "avg_reachable": reach,
        "recalls": recalls,
        "pearson_r": corr,
    }
