"""Extension — WAL overhead under churn, plus a crash-recovery proof.

Two arms of the *same* 90/10 search-mutation interleave
(:func:`repro.evalx.runner.interleaved_workload`), differing only in
whether the store journals to a write-ahead log:

- **wal-off**: the epoch serving layer alone, journaling nothing (the
  repo benchmark's ``churn_wal`` workload, ``benchmarks/perf``, measures
  serving under churn end to end).
- **wal-on**: every insert/delete journaled (CRC-framed, fsync batched
  every ``SYNC_EVERY`` records) before the call returns.

Contract: WAL-on effective QPS must stay at least ``TARGET_WAL_RATIO`` of
the WAL-off arm at equal recall — durability may not cost more than 10% of
churn throughput.  After the measured run, the WAL-on store's directory is
recovered from scratch and the report must be consistent with every vector
accounted for (the crash-recovery proof at benchmark scale; the chaos
*kill* tests live in tests/test_robustness.py).

Results land in ``BENCH_durability.json`` at the repo root.  Running the
file directly performs a fast smoke pass (recovery consistency asserted,
QPS ratio informational) — this is the CI durability smoke job.
"""

import json
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workbench import K, get_dataset, get_gt, record
from repro import VectorStore
from repro.durability import recover
from repro.evalx import interleaved_workload

NAME = "laion-sim"
EF = 45
BATCH_SIZE = 64
MUTATION_FRACTION = 0.1
MERGE_EVERY = 150
SYNC_EVERY = 8
TARGET_WAL_RATIO = 0.90

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_durability.json"


def build_store(wal_dir=None):
    ds = get_dataset(NAME)
    store = VectorStore(dim=ds.base.shape[1], metric=ds.metric,
                        M=12, ef_construction=60, seed=3,
                        merge_every=MERGE_EVERY,
                        wal_dir=wal_dir, sync_every=SYNC_EVERY)
    store.add(ds.base)
    store.build()
    return store


def _churn_arm(store, queries, gt, repeats):
    if repeats > 1:
        tiled = np.tile(np.arange(len(queries)), repeats)
        queries, gt = queries[tiled], gt.take(tiled)
    store.search_batch(queries[:BATCH_SIZE], K, EF,
                       batch_size=BATCH_SIZE)  # warm
    return interleaved_workload(
        store, queries, gt, K, EF, batch_size=BATCH_SIZE,
        mutation_fraction=MUTATION_FRACTION, seed=3)


def run_durability(n_queries=None, repeats=1):
    ds = get_dataset(NAME)
    gt = get_gt(NAME, K)
    queries = ds.test_queries
    if n_queries is not None:
        n_queries = min(n_queries, len(queries))
        queries, gt = queries[:n_queries], gt.take(np.arange(n_queries))

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
    try:
        off = _churn_arm(build_store(), queries, gt, repeats)

        wal_dir = tmp / "wal"
        store_on = build_store(wal_dir=wal_dir)
        on = _churn_arm(store_on, queries, gt, repeats)
        wal_stats = store_on.wal.stats()
        checkpoint_s = time.perf_counter()
        store_on.checkpoint()
        checkpoint_s = time.perf_counter() - checkpoint_s
        n_expected = store_on._fixer.dc.size
        store_on.close()

        # Crash-recovery proof: a cold recover of the journaled history
        # reconstructs the store consistently with every vector present.
        t0 = time.perf_counter()
        recovered, report = recover(wal_dir)
        recovery_s = time.perf_counter() - t0
        assert report.consistent, report.errors
        assert recovered._fixer.dc.size == n_expected, (
            recovered._fixer.dc.size, n_expected)
        sample = queries[:BATCH_SIZE]
        results = recovered.search_batch(sample, K, EF,
                                         batch_size=BATCH_SIZE)
        assert all(len(r.ids) == K for r in results)
        recovered.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Recall must be equal across arms (identical workloads; the WAL is
    # off the read path entirely) before the QPS ratio means anything.
    assert abs(on.recall - off.recall) <= 0.01, (on.recall, off.recall)

    return {
        "n_queries": int(off.n_queries),
        "ef": EF, "batch_size": BATCH_SIZE,
        "mutation_fraction": MUTATION_FRACTION,
        "sync_every": SYNC_EVERY,
        "wal_off_qps": round(off.qps, 1),
        "wal_off_recall": round(off.recall, 4),
        "wal_on_qps": round(on.qps, 1),
        "wal_on_recall": round(on.recall, 4),
        "wal_qps_ratio": round(on.qps / off.qps, 3),
        "mutations": on.n_inserts + on.n_deletes,
        "wal_records": wal_stats["records"],
        "wal_fsyncs": wal_stats["fsyncs"],
        "checkpoint_seconds": round(checkpoint_s, 3),
        "recovery_seconds": round(recovery_s, 3),
        "recovery_replayed": report.replayed,
        "recovery_consistent": report.consistent,
    }


def test_ext_durability(benchmark):
    results = run_durability(repeats=5)
    record(
        "ext_durability",
        f"WAL overhead under 90/10 churn + crash recovery ({NAME}, ef={EF})",
        ["arm", "qps", "recall", "mutations", "wal records", "fsyncs"],
        [("wal-off churn", results["wal_off_qps"],
          results["wal_off_recall"], results["mutations"], "-", "-"),
         ("wal-on churn", results["wal_on_qps"], results["wal_on_recall"],
          results["mutations"], results["wal_records"],
          results["wal_fsyncs"])],
        notes=f"wal qps ratio {results['wal_qps_ratio']} (target "
              f">={TARGET_WAL_RATIO}); cold recovery in "
              f"{results['recovery_seconds']}s, consistent; "
              "JSON copy at BENCH_durability.json",
    )
    JSON_PATH.write_text(json.dumps(
        {"dataset": NAME, "k": K, "durability": results}, indent=2) + "\n")
    assert results["wal_qps_ratio"] >= TARGET_WAL_RATIO, (
        f"WAL churn QPS ratio {results['wal_qps_ratio']} "
        f"below {TARGET_WAL_RATIO}")

    store = build_store()
    queries = get_dataset(NAME).test_queries
    benchmark(lambda: store.search_batch(queries[:BATCH_SIZE], K, EF,
                                         batch_size=BATCH_SIZE))


def main():
    """CI smoke: recovery consistency asserted, QPS ratio informational."""
    start = time.perf_counter()
    results = run_durability(n_queries=120)
    print(f"durability: {results}")
    print(f"smoke pass in {time.perf_counter() - start:.1f}s "
          "(recovery consistency asserted; wal qps ratio informational)")


if __name__ == "__main__":
    main()
