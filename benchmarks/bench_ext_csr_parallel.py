"""Extension — frozen CSR graph kernel + multi-core offline pipeline.

Two arms, both with hard equivalence contracts:

- **CSR search**: the batched engine over the frozen
  :class:`~repro.graphs.csr.CSRGraphView` (contiguous int32 CSR, walked by
  the native executor when there is one) against the PR-1 baseline
  (sequential per-query beam search over the dynamic adjacency, on the
  Python reference loop).  Same ids, same NDC, distances equal to float32
  rounding across the two executors — only QPS moves.
- **Parallel build+fix**: NSG construction plus NGFix* fitting at
  ``n_workers=4`` against the serial run.  Graphs and NDC accounting must
  come out identical; wall-clock speedup requires real cores, so the
  ≥2x assertion is gated on ``os.cpu_count() >= 4`` and the JSON records
  the machine's core count either way.

Results land in ``BENCH_csr_parallel.json`` at the repo root.  Running the
file directly (``python benchmarks/bench_ext_csr_parallel.py``) performs a
fast smoke pass: equivalence + CSR-path assertions at whatever
``REPRO_BENCH_SCALE`` is set, no JSON, no speedup targets — this is the CI
benchmark smoke job.
"""

import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workbench import (FIX_PARAMS, K, NSG_PARAMS, get_dataset, get_hnsw,
                       record, timed)
from repro import NSG, FixConfig, NGFixer
from repro.graphs.search import VisitedTable, greedy_search

NAME = "laion-sim"
EF = 100
N_QUERIES = 500
BATCH_SIZES = [64, 256]
N_WORKERS = 4
TARGET_SEARCH_SPEEDUP = 1.5  # frozen-CSR batched vs the PR-1 baseline
TARGET_PARALLEL_SPEEDUP = 2.0

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
    """PR-1 baseline vs frozen-CSR batch path."""
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

    index.freeze()
    assert index.adjacency.csr_view() is not None, "CSR path not exercised"
    arms = []
    for bs in BATCH_SIZES:
        index.search_batch(queries, K, EF, batch_size=bs)  # warm
        index.dc.reset_ndc()
        csr_s, csr_results = timed(
            lambda: index.search_batch(queries, K, EF, batch_size=bs))
        csr_ndc = index.dc.reset_ndc()
        assert index.adjacency.csr_view() is not None, "view dirtied mid-run"

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


def run_parallel_build_fix():
    """Serial vs n_workers=4 NSG build + NGFix* fit; identical artifacts."""
    ds = get_dataset(NAME)

    def build_and_fix(n_workers):
        t_build, nsg = timed(lambda: NSG(
            ds.base, ds.metric, n_workers=n_workers, **NSG_PARAMS))
        fixer = NGFixer(get_hnsw(NAME).clone(),
                        FixConfig(n_workers=n_workers, **FIX_PARAMS))
        t_fit, _ = timed(lambda: fixer.fit(ds.train_queries))
        return t_build, t_fit, nsg, fixer

    sb, sf, nsg_s, fix_s = build_and_fix(1)
    pb, pf, nsg_p, fix_p = build_and_fix(N_WORKERS)

    # Determinism contract: identical graphs and identical NDC accounting.
    assert nsg_s.dc.ndc == nsg_p.dc.ndc
    for u in range(nsg_s.size):
        assert (nsg_s.adjacency.base_neighbors_ro(u)
                == nsg_p.adjacency.base_neighbors_ro(u)), f"NSG differs at {u}"
    assert fix_s.dc.ndc == fix_p.dc.ndc
    assert fix_s.preprocess_ndc == fix_p.preprocess_ndc
    for u in range(fix_s.dc.size):
        assert (fix_s.adjacency.extra_neighbors_ro(u)
                == fix_p.adjacency.extra_neighbors_ro(u)), f"fix differs at {u}"

    return {
        "n_workers": N_WORKERS, "cpu_count": os.cpu_count(),
        "serial_build_s": round(sb, 3), "serial_fit_s": round(sf, 3),
        "parallel_build_s": round(pb, 3), "parallel_fit_s": round(pf, 3),
        "speedup": round((sb + sf) / (pb + pf), 2),
    }


def test_ext_csr_search(benchmark):
    results = run_csr_search()
    rows = [("pr1 sequential baseline", 1, results["pr1_baseline_qps"], 1.0)]
    for arm in results["arms"]:
        rows.append((f"frozen CSR bs={arm['batch_size']}",
                     arm["batch_size"], arm["csr_qps"],
                     arm["speedup_vs_baseline"]))
    record(
        "ext_csr_search",
        f"frozen-CSR batch kernel vs the PR-1 path ({NAME}, ef={EF})",
        ["mode", "batch size", "qps", "vs baseline"],
        rows,
        notes="identical ids/NDC, distances to float32 rounding asserted on "
              "every arm; JSON copy at BENCH_csr_parallel.json",
    )
    _merge_json({"dataset": NAME, "k": K, "csr_search": results})
    best = results["best_speedup_vs_baseline"]
    assert best >= TARGET_SEARCH_SPEEDUP, (
        f"CSR speedup {best}x below {TARGET_SEARCH_SPEEDUP}x")
    index = get_hnsw(NAME)
    queries = _queries(get_dataset(NAME), N_QUERIES)
    benchmark(lambda: index.search_batch(queries, K, EF,
                                         batch_size=BATCH_SIZES[-1]))


def test_ext_parallel_build_fix(benchmark):
    results = run_parallel_build_fix()
    record(
        "ext_parallel_build_fix",
        f"serial vs {N_WORKERS}-worker NSG build + NGFix* fit ({NAME})",
        ["stage", "serial s", f"n_workers={N_WORKERS} s"],
        [("NSG build", results["serial_build_s"], results["parallel_build_s"]),
         ("NGFix* fit", results["serial_fit_s"], results["parallel_fit_s"]),
         ("total speedup", 1.0, results["speedup"])],
        notes=f"identical graphs/NDC asserted; {results['cpu_count']} cores "
              "on this machine — wall-clock speedup needs real cores",
    )
    _merge_json({"dataset": NAME, "k": K, "parallel_build_fix": results})
    if (os.cpu_count() or 1) >= 4:
        assert results["speedup"] >= TARGET_PARALLEL_SPEEDUP, (
            f"parallel speedup {results['speedup']}x below "
            f"{TARGET_PARALLEL_SPEEDUP}x with {os.cpu_count()} cores")
    benchmark(lambda: NSG(get_dataset(NAME).base, get_dataset(NAME).metric,
                          n_workers=N_WORKERS, **NSG_PARAMS))


def _merge_json(update):
    payload = {}
    if JSON_PATH.exists():
        payload = json.loads(JSON_PATH.read_text())
    payload.update(update)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def main():
    """CI smoke: equivalence contracts only, no JSON, no speedup targets."""
    start = time.perf_counter()
    search = run_csr_search(n_queries=100)
    par = run_parallel_build_fix()
    print(f"csr search : {search}")
    print(f"parallel   : {par}")
    print(f"smoke pass in {time.perf_counter() - start:.1f}s "
          "(equivalence asserted; speedups informational)")


if __name__ == "__main__":
    main()
