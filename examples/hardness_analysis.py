"""Hardness analysis: inspect a query's QNG and Escape Hardness matrix, then
watch NGFix repair it (paper Secs. 4-5 walk-through).

Run:  python examples/hardness_analysis.py
"""

import numpy as np

from repro import (
    HNSW,
    compute_ground_truth,
    escape_hardness,
    load_dataset,
    ngfix_query,
    qng_connectivity_report,
    rfix_query,
)
from repro.evalx import recall_per_query
from repro.graphs.base import medoid_id


def show_eh(eh, label):
    finite = eh.eh[np.isfinite(eh.eh) & (eh.eh > 0)]
    print(f"  {label}: unreachable pairs = {eh.n_unreachable_pairs()}, "
          f"hardness score = {eh.hardness_score():.2f}, "
          f"max finite EH = {finite.max() if finite.size else 0:.0f}")


def main():
    ds = load_dataset("laion-sim", scale=0.5)
    k, K_max = 10, 30
    index = HNSW(ds.base, ds.metric, M=12, ef_construction=60)
    gt = compute_ground_truth(ds.base, ds.test_queries, K_max, ds.metric)

    # Rank queries by base-graph recall to find a genuinely hard one.
    found = np.vstack([index.search(q, k=k, ef=2 * k).ids[:k]
                       for q in ds.test_queries])
    recalls = recall_per_query(found, gt.ids[:, :k])
    hard = int(np.argmin(recalls))
    easy = int(np.argmax(recalls))

    for label, qi in (("EASY", easy), ("HARD", hard)):
        print(f"\n{label} query #{qi}: recall@{k} = {recalls[qi]:.2f}")
        report = qng_connectivity_report(index.adjacency.neighbors,
                                         gt.ids[qi][:k])
        print(f"  QNG: {report['n_edges']} edges, "
              f"{report['avg_reachable']:.1f}/{k} avg reachable, "
              f"{report['isolated_points']} isolated points")
        eh = escape_hardness(index.adjacency.neighbors, gt.ids[qi], k)
        show_eh(eh, "EH before fix")

    # Fix the hard query's neighborhood and re-measure.
    print(f"\napplying NGFix to the HARD query ...")
    eh = escape_hardness(index.adjacency.neighbors, gt.ids[hard], k)
    outcome = ngfix_query(index.adjacency, index.dc, eh, max_extra_degree=12)
    print(f"  added {len(outcome.edges_added)} directed extra edges "
          f"(Theorem 4 bound: {2 * (k - 1)})")
    eh_after = escape_hardness(index.adjacency.neighbors, gt.ids[hard], k)
    show_eh(eh_after, "EH after fix ")

    def measure():
        result = index.search(ds.test_queries[hard], k=k, ef=2 * k)
        return len(set(result.ids.tolist())
                   & set(gt.ids[hard][:k].tolist())) / k

    after_ngfix = measure()
    print(f"  hard query recall@{k}: {recalls[hard]:.2f} -> {after_ngfix:.2f}")

    if after_ngfix == 0.0:
        # Recall zero despite a repaired neighborhood means the search never
        # *reaches* the neighborhood: a phase-1 failure, which is exactly
        # what RFix exists for (Sec. 5.4).
        print("\n  recall still 0: the search stalls before the vicinity "
              "(phase-1 failure) -> applying RFix ...")
        outcome = rfix_query(
            index.adjacency, index.dc, ds.test_queries[hard],
            gt.ids[hard][:k], gt.distances[hard][:k],
            entry_point=medoid_id(index.dc), search_ef=2 * k,
            max_extra_degree=12)
        print(f"  RFix added {len(outcome.edges_added)} navigation edges "
              f"(EH = inf, never evicted); reached vicinity: "
              f"{outcome.reached_vicinity}")
        print(f"  hard query recall@{k} after NGFix + RFix: {measure():.2f}")


if __name__ == "__main__":
    main()
