"""Workload drift: keep the index sharp as the query distribution moves.

The paper's production motivation (Sec. 1 & 7): between two periods of
e-commerce traffic, ~10% of queries drift away from the old workload, and
RoarGraph-style indexes need a full rebuild to follow.  NGFix* adapts online
via the WorkloadAdapter: fix-as-you-serve plus periodic extra-edge refresh
with newest-first re-fixing.  The adapted index is then persisted and
reloaded, the deployment cycle of a real service.

Run:  python examples/workload_drift.py
"""

import tempfile

import numpy as np

from repro import (
    HNSW,
    CrossModalConfig,
    FixConfig,
    NGFixer,
    WorkloadAdapter,
    compute_ground_truth,
    load_index,
    make_drifting_workload,
    recall_at_k,
    save_index,
)


def recall_on(index, queries, base, metric, k=10, ef=20):
    gt = compute_ground_truth(base, queries, k, metric)
    found = np.vstack([index.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt.ids)


def main():
    config = CrossModalConfig(n_base=1500, dim=32, n_clusters=14,
                              cluster_std=0.14, gap_scale=1.0,
                              query_spread=0.45, n_facets=2, seed=1)
    drift = make_drifting_workload(config, n_phases=3, queries_per_phase=120,
                                   drift_per_phase=0.6)
    print(f"3-phase workload over {drift.base.shape[0]} vectors; "
          f"gap angles {[round(a, 2) for a in drift.gap_angles]} rad")

    base = HNSW(drift.base, drift.metric, M=12, ef_construction=60)
    fixer = NGFixer(base, FixConfig(k=10, preprocess="approx"))
    fixer.fit(drift.phases[0])
    print(f"\nfixed on phase-0 history; phase recalls: "
          f"{[round(recall_on(fixer, p, drift.base, drift.metric), 3) for p in drift.phases]}")

    adapter = WorkloadAdapter(fixer, refresh_interval=60, window=60,
                              refresh_drop_fraction=0.2)
    print("serving phases 1-2 through the adapter "
          "(fix-as-you-serve + periodic refresh) ...")
    adapter.observe_batch(drift.phases[1])
    adapter.observe_batch(drift.phases[2])
    print(f"after adaptation ({adapter.refreshes} refreshes): "
          f"{[round(recall_on(fixer, p, drift.base, drift.metric), 3) for p in drift.phases]}")

    with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
        path = save_index(fixer, handle.name)
        served = load_index(path)
        print(f"\npersisted and reloaded ({path.stat().st_size} bytes); "
              f"phase-2 recall from the loaded artifact: "
              f"{recall_on(served, drift.phases[2], drift.base, drift.metric):.3f}")


if __name__ == "__main__":
    main()
