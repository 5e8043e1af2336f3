"""Extension — the batched native graph kernel.

``index.search_batch`` — the batched engine over the live graph's int32
slab (:class:`~repro.graphs.adjacency.AdjacencyStore`, walked in place by
the native executor when there is one; a CSR snapshot is built only when a
serving epoch is cut) — against the PR-1 baseline (sequential per-query
beam search over the dynamic adjacency, on the Python reference loop).
Same ids, same NDC, distances equal to float32 rounding across the two
executors — only QPS moves.  (That builds and ground truth come out the
same at any thread budget is a tier-1 contract:
``tests/test_csr_parallel.py``.)

Results land in ``BENCH_csr_parallel.json`` at the repo root.  Running the
file directly (``python benchmarks/bench_ext_csr_parallel.py``) performs a
fast smoke pass: equivalence + native-path assertions at whatever
``REPRO_BENCH_SCALE`` is set, no JSON, no speedup targets — this is the CI
benchmark smoke job.
"""

import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workbench import K, get_dataset, get_hnsw, record, timed
from repro.graphs import native
from repro.graphs.search import VisitedTable, greedy_search

NAME = "laion-sim"
EF = 100
N_QUERIES = 500
BATCH_SIZES = [64, 256]
TARGET_SEARCH_SPEEDUP = 1.5  # batched native vs the PR-1 baseline

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_csr_parallel.json"


def _queries(ds, n):
    qs = np.concatenate([ds.test_queries, ds.train_queries])[:n]
    return np.ascontiguousarray(qs, dtype=np.float32)


def _pad(results, k):
    ids = np.full((len(results), k), -1, dtype=np.int64)
    dists = np.full((len(results), k), np.inf)
    for i, r in enumerate(results):
        m = min(k, len(r.ids))
        ids[i, :m] = r.ids[:m]
        dists[i, :m] = r.distances[:m]
    return ids, dists


def run_csr_search(n_queries=N_QUERIES):
    """PR-1 baseline vs the batched path over the live slab."""
    ds = get_dataset(NAME)
    index = get_hnsw(NAME)
    queries = _queries(ds, n_queries)

    # PR-1 baseline: sequential per-query beam search over the dynamic
    # per-node adjacency (exactly PR 1's `index.search` hot path).
    visited = VisitedTable(index.dc.size)

    def sequential():
        return [greedy_search(index.dc, index.adjacency.neighbors,
                              index.entry_points(q), q, k=K, ef=EF,
                              visited=visited, prepared=True)
                for q in (index.dc.prepare_query(q) for q in queries)]

    sequential()  # warm
    index.dc.reset_ndc()
    seq_s, seq_results = timed(sequential)
    seq_ndc = index.dc.reset_ndc()
    seq_ids, seq_d = _pad(seq_results, K)

    arms = []
    for bs in BATCH_SIZES:
        index.search_batch(queries, K, EF, batch_size=bs)  # warm
        index.dc.reset_ndc()
        csr_s, csr_results = timed(
            lambda: index.search_batch(queries, K, EF, batch_size=bs))
        csr_ndc = index.dc.reset_ndc()
        if native.enabled():
            assert all(r.executor == "native" for r in csr_results), (
                "native path not exercised")

        ids, d = _pad(csr_results, K)
        np.testing.assert_array_equal(ids, seq_ids)
        # A float32 sum in the C loop and in NumPy's einsum round apart.
        np.testing.assert_allclose(d, seq_d, rtol=1e-6, atol=1e-6)
        assert csr_ndc == seq_ndc, f"NDC drifted: {csr_ndc} vs {seq_ndc}"

        arms.append({
            "batch_size": bs,
            "csr_qps": round(len(queries) / csr_s, 1),
            "speedup_vs_baseline": round(seq_s / csr_s, 2),
        })

    return {
        "n_queries": len(queries), "ef": EF,
        "pr1_baseline_qps": round(len(queries) / seq_s, 1),
        "arms": arms,
        "best_speedup_vs_baseline": max(a["speedup_vs_baseline"]
                                        for a in arms),
    }


def test_ext_csr_search(benchmark):
    results = run_csr_search()
    rows = [("pr1 sequential baseline", 1, results["pr1_baseline_qps"], 1.0)]
    for arm in results["arms"]:
        rows.append((f"batched bs={arm['batch_size']}",
                     arm["batch_size"], arm["csr_qps"],
                     arm["speedup_vs_baseline"]))
    record(
        "ext_csr_search",
        f"batched native kernel vs the PR-1 path ({NAME}, ef={EF})",
        ["mode", "batch size", "qps", "vs baseline"],
        rows,
        notes="identical ids/NDC, distances to float32 rounding asserted on "
              "every arm; JSON copy at BENCH_csr_parallel.json",
    )
    _merge_json({"dataset": NAME, "k": K, "csr_search": results})
    best = results["best_speedup_vs_baseline"]
    assert best >= TARGET_SEARCH_SPEEDUP, (
        f"batched speedup {best}x below {TARGET_SEARCH_SPEEDUP}x")
    index = get_hnsw(NAME)
    queries = _queries(get_dataset(NAME), N_QUERIES)
    benchmark(lambda: index.search_batch(queries, K, EF,
                                         batch_size=BATCH_SIZES[-1]))


def _merge_json(update):
    payload = {}
    if JSON_PATH.exists():
        payload = json.loads(JSON_PATH.read_text())
    payload.update(update)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def main():
    """CI smoke: equivalence contract only, no JSON, no speedup target."""
    start = time.perf_counter()
    search = run_csr_search(n_queries=100)
    print(f"csr search : {search}")
    print(f"smoke pass in {time.perf_counter() - start:.1f}s "
          "(equivalence asserted; speedups informational)")


if __name__ == "__main__":
    main()
