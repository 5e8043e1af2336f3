"""Per-query diagnosis: why is this query hard, and what would fix it?

``explain_query`` packages the paper's analysis machinery (QNG
connectivity, Escape Hardness, the two-phase reach test) into one
operator-facing report — the tool an engineer reaches for when a production
query misbehaves.  The recommended ef comes straight from Corollary 1: the
largest finite EH among the query's NN pairs upper-bounds the search list
needed once the vicinity is reached.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.escape_hardness import escape_hardness
from repro.core.qng import build_qng, average_reachable, isolated_points
from repro.core.rfix import search_reaches_vicinity
from repro.graphs.base import medoid_id
from repro.graphs.search import greedy_search
from repro.utils.validation import check_positive


def explain_query(index, query: np.ndarray, k: int = 10,
                  hard_ratio: float = 3.0) -> dict:
    """Diagnose one query against an index (or NGFixer).

    Returns a dict with:

    - ``qng``: edge count, average reachable fraction, isolated points;
    - ``escape_hardness``: unreachable pair count, hardness score, max
      finite EH;
    - ``phase1``: whether a greedy probe from the medoid reaches the
      query's vicinity (the RFix trigger);
    - ``verdict``: "easy" / "needs-ngfix" / "needs-rfix";
    - ``recommended_ef``: Corollary-1 bound (max finite EH, floored at k),
      or the K_max cap when pairs are unreachable.
    """
    check_positive(k, "k")
    query = np.asarray(query, dtype=np.float32)
    dc = index.dc
    K_max = int(math.ceil(hard_ratio * k))
    q = dc.prepare_query(query)

    # exact neighborhood (one brute pass; explain() is a diagnostic, not a
    # serving path)
    saved = dc.ndc
    dists = dc.all_to_query(q)
    dc.ndc = saved
    order = np.argsort(dists, kind="stable")[:K_max]
    nn_ids = order.astype(np.int64)
    kth_distance = float(dists[order[k - 1]])

    local = build_qng(index.adjacency.neighbors, nn_ids[:k])
    eh = escape_hardness(index.adjacency, nn_ids, k)
    finite = eh.eh[np.isfinite(eh.eh) & (eh.eh > 0)]
    max_finite = float(finite.max()) if finite.size else float(k)

    entry = index.entry_points(q)[0] if hasattr(index, "entry_points") \
        else medoid_id(dc)
    probe = greedy_search(dc, index.adjacency, [entry], q,
                          k=1, ef=k, prepared=True)
    reaches = search_reaches_vicinity(float(probe.distances[0]), kth_distance)

    unreachable = eh.n_unreachable_pairs()
    if not reaches:
        verdict = "needs-rfix"
    elif unreachable > 0:
        verdict = "needs-ngfix"
    else:
        verdict = "easy"
    recommended_ef = int(K_max if unreachable else max(max_finite, k))

    return {
        "k": k,
        "qng": {
            "n_edges": sum(len(row) for row in local),
            "avg_reachable_fraction": average_reachable(local) / k,
            "isolated_points": isolated_points(local),
        },
        "escape_hardness": {
            "unreachable_pairs": unreachable,
            "hardness_score": eh.hardness_score(),
            "max_finite_eh": max_finite,
        },
        "phase1": {
            "entry": int(entry),
            "reaches_vicinity": bool(reaches),
            "anchor_distance": float(probe.distances[0]),
            "kth_nn_distance": kth_distance,
        },
        "verdict": verdict,
        "recommended_ef": recommended_ef,
    }
