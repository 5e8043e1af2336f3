"""Streaming maintenance: insertions with partial rebuilds, deletions with
NGFix repair (paper Sec. 5.5 / Figs. 18-19).

Run:  python examples/streaming_maintenance.py
"""

import numpy as np

from repro import (
    HNSW,
    FixConfig,
    IndexMaintainer,
    NGFixer,
    load_dataset,
    recall_at_k,
)


def live_recall(fixer, queries, k, ef, deleted=()):
    """Recall against exact ground truth over the *surviving* corpus."""
    from repro.distances import pairwise_distances
    d = pairwise_distances(queries, fixer.dc.data, fixer.dc.metric)
    if len(deleted):
        d[:, list(deleted)] = np.inf
    gt_ids = np.argsort(d, axis=1, kind="stable")[:, :k]
    found = np.vstack([fixer.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt_ids)


def main():
    ds = load_dataset("text2image-sim", scale=0.5)
    k, ef = 10, 30
    n_initial = int(0.8 * ds.n)

    print(f"initial index over {n_initial} of {ds.n} vectors ...")
    index = HNSW(ds.base[:n_initial], ds.metric, M=12, ef_construction=60)
    fixer = NGFixer(index, FixConfig(k=k, preprocess="approx"))
    fixer.fit(ds.train_queries)
    maintainer = IndexMaintainer(fixer, ds.train_queries, compact_threshold=0.05)
    print(f"recall: {live_recall(fixer, ds.test_queries, k, ef):.3f}")

    print(f"\ninserting the remaining {ds.n - n_initial} vectors ...")
    maintainer.insert(ds.base[n_initial:])
    print(f"recall after inserts        : "
          f"{live_recall(fixer, ds.test_queries, k, ef):.3f}")

    report = maintainer.partial_rebuild(proportion=0.5, drop_fraction=0.2)
    print(f"partial rebuild (p=0.5)     : dropped {report['dropped_extra_edges']} "
          f"extra edges, re-fixed {report['history_used']} queries "
          f"in {report['seconds']:.2f}s")
    print(f"recall after partial rebuild: "
          f"{live_recall(fixer, ds.test_queries, k, ef):.3f}")

    print("\ndeleting 10% of the corpus ...")
    rng = np.random.default_rng(0)
    victims = rng.choice(fixer.dc.size, size=fixer.dc.size // 10, replace=False)
    compacted = maintainer.delete(victims)  # crosses the 5% threshold
    print(f"compaction triggered automatically: {compacted} "
          f"({maintainer.last_compaction_seconds:.2f}s, NGFix repair included)")
    print(f"recall after delete + repair: "
          f"{live_recall(fixer, ds.test_queries, k, ef, deleted=victims):.3f}")


if __name__ == "__main__":
    main()
