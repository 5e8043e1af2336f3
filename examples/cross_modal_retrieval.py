"""Cross-modal retrieval shoot-out: NGFix* vs RoarGraph vs HNSW vs NSG.

Reproduces the flavor of the paper's Fig. 8 on a simulated text-to-image
workload: sweep the search list size and report QPS at fixed recall.

Run:  python examples/cross_modal_retrieval.py
"""

from repro import (
    HNSW,
    NSG,
    FixConfig,
    NGFixer,
    RoarGraph,
    compute_ground_truth,
    load_dataset,
    qps_at_recall,
    sweep,
)
from repro.evalx import format_table


def main():
    ds = load_dataset("text2image-sim", scale=0.5)
    k = 10
    gt = compute_ground_truth(ds.base, ds.test_queries, k, ds.metric)
    efs = [10, 15, 20, 30, 45, 70, 100, 150, 220]

    print(f"building indexes on {ds.n} vectors "
          f"({len(ds.train_queries)} historical queries) ...")
    hnsw = HNSW(ds.base, ds.metric, M=12, ef_construction=60)
    fixer = NGFixer(hnsw.clone(), FixConfig(k=k, preprocess="approx"))
    fixer.fit(ds.train_queries)
    indexes = {
        "HNSW-NGFix*": fixer,
        "RoarGraph": RoarGraph(ds.base, ds.metric, ds.train_queries, M=24,
                               n_query_neighbors=32),
        "HNSW": hnsw,
        "NSG": NSG(ds.base, ds.metric, R=24, L=60),
    }

    curves = {label: sweep(index, ds.test_queries, gt, k, efs)
              for label, index in indexes.items()}

    rows = []
    for label, points in curves.items():
        row = [label]
        for target in (0.90, 0.95, 0.99):
            qps = qps_at_recall(points, target)
            row.append(f"{qps:.0f}" if qps else "-")
        rows.append(row)
    print()
    print(format_table(["index", "QPS@0.90", "QPS@0.95", "QPS@0.99"], rows,
                       title=f"QPS at fixed recall@{k} (OOD test queries)"))


if __name__ == "__main__":
    main()
