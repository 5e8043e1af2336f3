"""Quickstart: fix an HNSW index with historical queries and measure the gain.

Run:  python examples/quickstart.py
"""

from repro import (
    HNSW,
    FixConfig,
    NGFixer,
    compute_ground_truth,
    evaluate_index,
    load_dataset,
)


def main():
    # A simulated cross-modal workload: base = one modality, queries = the
    # other, separated by a modality gap (see repro.datasets.crossmodal).
    ds = load_dataset("laion-sim", scale=0.5)
    print(f"dataset: {ds}")

    k = 10
    gt = compute_ground_truth(ds.base, ds.test_queries, k, ds.metric)

    # Base graph: HNSW bottom layer, as in the paper.
    index = HNSW(ds.base, ds.metric, M=12, ef_construction=60)
    before = evaluate_index(index, ds.test_queries, gt, k=k, ef=30)
    print(f"HNSW        : recall@{k}={before.recall:.3f}  "
          f"NDC/query={before.ndc_per_query:.0f}  QPS={before.qps:.0f}")

    # NGFix*: detect and fix defective graph regions around the historical
    # queries.  preprocess="approx" = the fast mode (no exact ground truth).
    fixer = NGFixer(index, FixConfig(k=k, preprocess="approx"))
    fixer.fit(ds.train_queries)
    after = evaluate_index(fixer, ds.test_queries, gt, k=k, ef=30)
    print(f"HNSW-NGFix* : recall@{k}={after.recall:.3f}  "
          f"NDC/query={after.ndc_per_query:.0f}  QPS={after.qps:.0f}")

    stats = fixer.stats()
    print(f"fixing added {stats['n_extra_edges']} extra edges for "
          f"{stats['queries_fixed']} historical queries "
          f"in {stats['preprocess_seconds'] + stats['fix_seconds']:.2f}s")
    assert after.recall >= before.recall


if __name__ == "__main__":
    main()
