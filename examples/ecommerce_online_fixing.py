"""E-commerce production scenario: online fixing + answer cache.

Mirrors the paper's MainSearch deployment story:

1. the index serves a live query stream whose workload slowly drifts;
2. each served query is also fed to NGFix* *online* (approximate
   preprocessing keeps this cheap), so the graph adapts to the drift without
   a rebuild — the capability RoarGraph lacks;
3. exact-repeat queries (users re-issuing the same search) short-circuit
   through an MD5 hash cache.

Run:  python examples/ecommerce_online_fixing.py
"""

import numpy as np

from repro import (
    HNSW,
    CachedSearcher,
    FixConfig,
    HashTableCache,
    NGFixer,
    compute_ground_truth,
    load_dataset,
    recall_at_k,
)


def stream_recall(index, queries, gt, k, ef):
    found = np.vstack([index.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt.ids)


def main():
    ds = load_dataset("mainsearch-sim", scale=0.5)
    k, ef = 10, 25
    # The test stream contains ~10% drifted queries the history never saw.
    stream = ds.test_queries
    gt = compute_ground_truth(ds.base, stream, k, ds.metric)

    index = HNSW(ds.base, ds.metric, M=12, ef_construction=60)
    fixer = NGFixer(index, FixConfig(k=k, preprocess="approx"))
    print(f"serving {len(stream)} queries at ef={ef} ...")
    print(f"recall before any fixing : {stream_recall(fixer, stream, gt, k, ef):.3f}")

    # Warm-up: fix with whatever history exists (small for MainSearch).
    fixer.fit(ds.train_queries)
    print(f"after fixing with history: {stream_recall(fixer, stream, gt, k, ef):.3f}")

    # Online adaptation: the stream itself becomes history, one query at a
    # time — by the second pass the drifted region is repaired too.
    for query in stream:
        fixer.fix_query(query)
    print(f"after online fixing      : {stream_recall(fixer, stream, gt, k, ef):.3f}")

    # Exact-repeat traffic through the hash cache.
    cached = CachedSearcher(fixer, HashTableCache())
    gt_hist = compute_ground_truth(ds.base, ds.train_queries, k, ds.metric)
    cached.warm(ds.train_queries, gt_hist.ids, gt_hist.distances)
    for q in ds.train_queries[:50]:
        cached.search(q, k=k, ef=ef)
    print(f"hash cache: {cached.cache.hits} hits / "
          f"{cached.cache.hits + cached.cache.misses} repeated queries, "
          f"{cached.cache.memory_bytes()} bytes stored")


if __name__ == "__main__":
    main()
