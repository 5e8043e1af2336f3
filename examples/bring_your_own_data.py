"""Bring your own data: fvecs files in, tuned + fixed index out.

The workflow for running this library on the real benchmark corpora
(SIFT/DEEP/Text-to-Image ship as .fvecs/.bvecs): read vectors, auto-tune
NGFix* under an index-size budget, fix, evaluate, persist.  Here the
"files" are written from a synthetic dataset first, so the script runs
offline end to end.

Run:  python examples/bring_your_own_data.py
"""

import tempfile
from pathlib import Path

from repro import (
    HNSW,
    FixConfig,
    NGFixer,
    compute_ground_truth,
    evaluate_index,
    load_dataset,
    save_index,
)
from repro.datasets import read_vecs, write_vecs
from repro.evalx import tune_fix_config


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Stand-in for downloaded benchmark files.
        source = load_dataset("text2image-sim", scale=0.5)
        write_vecs(tmp / "base.fvecs", source.base)
        write_vecs(tmp / "queries.fvecs", source.train_queries)
        write_vecs(tmp / "test.fvecs", source.test_queries)

        # ---- the part a user runs on their own files -------------------
        base = read_vecs(tmp / "base.fvecs")
        history = read_vecs(tmp / "queries.fvecs")
        test = read_vecs(tmp / "test.fvecs", max_vectors=100)
        metric = "ip"
        k = 10
        print(f"loaded {base.shape[0]} base vectors (d={base.shape[1]}), "
              f"{history.shape[0]} historical queries")

        index = HNSW(base, metric, M=12, ef_construction=60)
        gt = compute_ground_truth(base, test, k, metric)

        print("auto-tuning NGFix* under a 30 KB extra-edge budget ...")
        best, trials = tune_fix_config(
            index, history[:150], test, gt, k=k, target_recall=0.95,
            max_extra_bytes=30_000, degree_grid=(4, 8, 16),
            ef_values=[10, 20, 40, 80, 160])
        for t in trials:
            print(f"  degree={t.params['max_extra_degree']:>2}: "
                  f"NDC@0.95={t.ndc_at_target and round(t.ndc_at_target)} "
                  f"extra={t.extra_bytes}B feasible={t.feasible}")
        print(f"chosen: max_extra_degree={best['max_extra_degree']}")

        fixer = NGFixer(index, FixConfig(**best))
        fixer.fit(history)
        point = evaluate_index(fixer, test, gt, k=k, ef=30)
        print(f"fixed index: recall@{k}={point.recall:.3f} "
              f"NDC/query={point.ndc_per_query:.0f}")

        path = save_index(fixer, tmp / "index")
        print(f"persisted to {path.name} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
