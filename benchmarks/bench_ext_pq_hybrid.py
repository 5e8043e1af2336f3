"""Extension — PQ-resident compressed hot path vs the CSR batched baseline.

Four arms, results merged into ``BENCH_pq_hybrid.json`` at the repo root:

- **Equal-recall QPS**: the batched ADC traversal (uint8 codes resident,
  per-block ADC tables, wide beam) + exact re-rank of the visited-set
  shortlist, swept against the full-precision batched engine (the "CSR"
  arm: it walks the live graph's int32 slab) on ``laion-sim``.  The gate compares QPS at equal recall@10 anchored at the
  CSR ef=100 operating point.
- **ADC kernel**: the per-gather scoring kernel head-to-head — flat-table
  ADC ``take`` gathers vs the full-precision block reduction on identical
  (rows, owners) workloads.
- **Memmap tier**: a cluster-structured corpus served ``compressed`` with
  the raw vector file spilled to disk, page-cache evicted, and the
  serving-phase resident footprint of the file mapping measured against
  the harness RSS cap (half the file) — the bigger-than-RAM demo: codes
  navigate, only re-rank shortlists page vector rows in.
- **Exchange rate**: full-precision NDC/query collapses to the re-rank
  budget while cheap ADC lookups absorb the traversal (Sec. 3 hybrids).

Running the file directly (``python benchmarks/bench_ext_pq_hybrid.py``)
performs the CI smoke pass at whatever ``REPRO_BENCH_SCALE`` is set:
every arm runs with loosened-but-real recall and QPS-ratio gates, no JSON.
"""

import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from workbench import (BENCH_SCALE, K, get_dataset, get_fixed, get_gt,
                       get_hnsw, record, search_op, timed)
from repro import compute_ground_truth
from repro.evalx import evaluate_index
from repro.quantization import ADCComputer, PQRerankSearcher, ProductQuantizer
from repro.store import VectorStore

NAME = "laion-sim"
EF_BASELINE = 100            # the CSR anchor operating point
CSR_EFS = [45, 70, 100]
PQ_M = 12                    # laion-sim dim=48 → 4-dim subspaces
PQ_CONFIGS = [               # (rerank, ef, beam_width) sweep
    (250, 60, 8),
    (200, 70, 8),
    (250, 80, 8),
    (200, 100, 8),
    (300, 130, 8),
]
BATCH = 256
REPEATS = 3                  # best-of timing (container timing is noisy)
TARGET_EQUAL_RECALL_RATIO = 1.0   # full-mode gate
SMOKE_EQUAL_RECALL_RATIO = 0.5    # CI-scale floor (tiny corpora are
SMOKE_RECALL_BAND = 0.10          # overhead-bound, not kernel-bound)
TARGET_KERNEL_RATIO = 1.0

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pq_hybrid.json"


def _pq_ks(n: int) -> int:
    """Codebook size k-means can actually populate at this corpus scale."""
    return 256 if n >= 2048 else 64


def _queries(ds):
    return np.ascontiguousarray(ds.test_queries, dtype=np.float32)


def _recall(results, gt_ids):
    hits = 0
    for i, r in enumerate(results):
        hits += len(set(r.ids[:K].tolist()) & set(gt_ids[i, :K].tolist()))
    return hits / (len(results) * K)


def _best_qps(fn, n_queries):
    """Best-of-REPEATS QPS (max over runs damps container noise)."""
    best = 0.0
    for _ in range(REPEATS):
        elapsed, results = timed(fn)
        best = max(best, n_queries / elapsed)
    return best, results


def _interp_qps(points, target_recall):
    """QPS a (recall, qps) frontier achieves at the target recall.

    Linear interpolation between the bracketing swept points; clamps to
    the lowest point below the sweep, ``None`` above it (the frontier
    never reaches that recall).
    """
    pts = sorted(points, key=lambda p: p["recall"])
    if target_recall > pts[-1]["recall"]:
        return None
    if target_recall <= pts[0]["recall"]:
        return pts[0]["qps"]
    for lo, hi in zip(pts, pts[1:]):
        if lo["recall"] <= target_recall <= hi["recall"]:
            span = hi["recall"] - lo["recall"]
            if span == 0:
                return hi["qps"]
            frac = (target_recall - lo["recall"]) / span
            return lo["qps"] + frac * (hi["qps"] - lo["qps"])
    return pts[-1]["qps"]


# -- arm 1: equal-recall QPS -------------------------------------------------

def run_equal_recall():
    """CSR batched sweep vs compressed (ADC + visited-set re-rank) sweep."""
    ds = get_dataset(NAME)
    gt = get_gt(NAME)
    index = get_hnsw(NAME)
    queries = _queries(ds)
    nq = queries.shape[0]

    csr_points = []
    for ef in CSR_EFS:
        index.search_batch(queries[:32], K, ef, batch_size=BATCH)  # warm
        qps, results = _best_qps(
            lambda: index.search_batch(queries, K, ef, batch_size=BATCH), nq)
        csr_points.append({"ef": ef,
                           "recall": round(_recall(results, gt.ids), 4),
                           "qps": round(qps, 1)})

    pq = ProductQuantizer(m=PQ_M, ks=_pq_ks(ds.base.shape[0]),
                          metric=ds.metric, seed=0)
    pq.fit(ds.base)
    pq_points = []
    for rerank, ef, width in PQ_CONFIGS:
        searcher = PQRerankSearcher(index, pq=pq, rerank=rerank,
                                    beam_width=width)
        searcher.search_batch(queries[:32], K, ef, batch_size=BATCH)  # warm
        searcher.adc_scored = searcher.rerank_ndc = 0
        qps, results = _best_qps(
            lambda: searcher.search_batch(queries, K, ef, batch_size=BATCH),
            nq)
        pq_points.append({
            "rerank": rerank, "ef": ef, "beam_width": width,
            "recall": round(_recall(results, gt.ids), 4),
            "qps": round(qps, 1),
            "adc_per_query": round(searcher.adc_scored / (nq * REPEATS), 1),
            "rerank_ndc_per_query": round(
                searcher.rerank_ndc / (nq * REPEATS), 1),
        })

    csr_anchor = next(p for p in csr_points if p["ef"] == EF_BASELINE)
    # Equal-recall point: the CSR ef=100 recall, pulled down to the PQ
    # frontier's reach if a noisy run leaves it fractionally short.
    pq_max = max(p["recall"] for p in pq_points)
    target = min(csr_anchor["recall"], pq_max)
    csr_qps_at = _interp_qps(csr_points, target)
    pq_qps_at = _interp_qps(pq_points, target)
    return {
        "n_queries": nq, "batch_size": BATCH,
        "pq_m": PQ_M, "pq_ks": pq.ks,
        "csr_points": csr_points, "pq_points": pq_points,
        "target_recall": round(target, 4),
        "recall_shortfall": round(csr_anchor["recall"] - target, 4),
        "csr_qps_at_target": round(csr_qps_at, 1),
        "pq_qps_at_target": round(pq_qps_at, 1),
        "qps_ratio": round(pq_qps_at / csr_qps_at, 3),
    }


# -- arm 2: ADC kernel -------------------------------------------------------

def run_adc_kernel(n: int = 20000, dim: int = 48, n_rows: int = 3072,
                   n_queries: int = 64, kernel_repeats: int = 30):
    """Per-gather scoring: flat-table ADC vs the full-precision reduction.

    Runs on a fixed-size synthetic corpus regardless of ``BENCH_SCALE`` —
    the comparison is about memory traffic per gathered row, and a
    cache-resident toy matrix would measure nothing.
    """
    from repro.distances import DistanceComputer

    rng = np.random.default_rng(11)
    data = rng.normal(size=(n, dim)).astype(np.float32)
    dc = DistanceComputer(data, "cosine")
    ids = rng.integers(0, n, size=n_rows).astype(np.int64)
    owners = np.sort(rng.integers(0, n_queries, size=n_rows)).astype(np.int64)
    qmat = np.array([dc.prepare_query(q)
                     for q in rng.normal(size=(n_queries, dim))])

    def best_of(fn):
        return min(timed(fn)[0] for _ in range(kernel_repeats))

    dc.block_to_queries(ids, qmat, owners)  # warm
    full_s = best_of(lambda: dc.block_to_queries(ids, qmat, owners))

    pq = ProductQuantizer(m=PQ_M, ks=256, metric="cosine", seed=0)
    pq.fit(data[:4000])  # sample fit; encode covers every row
    adc = ADCComputer(dc, pq)
    adc.begin_block(qmat)
    adc.block_to_queries(ids, qmat, owners)  # warm
    adc_s = best_of(lambda: adc.block_to_queries(ids, qmat, owners))

    return {
        "n": n, "dim": dim,
        "rows_per_gather": n_rows, "block_queries": n_queries,
        "full_precision_us": round(full_s * 1e6, 1),
        "adc_us": round(adc_s * 1e6, 1),
        "kernel_speedup": round(full_s / adc_s, 2),
        "code_bytes": int(adc.code_bytes),
        "vector_bytes": int(dc.vector_bytes),
        "compression": round(dc.vector_bytes / adc.code_bytes, 1),
    }


# -- arm 3: memmap tier ------------------------------------------------------

def _mapped_rss_bytes(path) -> int:
    """Resident bytes of this process's mappings of ``path`` (smaps)."""
    rss, want = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if str(path) in line:
                want = True
            elif want and line.startswith("Rss:"):
                rss += int(line.split()[1]) * 1024
                want = False
    return rss


def _evict_page_cache(path) -> None:
    """Drop ``path`` from the page cache so serving faults hit disk.

    ``MADV_RANDOM`` on the mapping stops readahead, but minor faults
    still map every *page-cache-resident* neighbor page (fault-around),
    and the whole file is cache-hot right after the spill write.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


def run_memmap_tier(tmp_dir=None):
    """Cold disk-tier serving demo: codes navigate, re-rank pages rows in.

    A cluster-contiguous corpus (disk tiers cluster their layout so local
    query workloads touch few pages) is built into a ``compressed`` +
    ``memmap_path`` store; the file mapping is then re-opened (zero
    resident pages) and evicted from the page cache, so residency after
    serving is exactly what the query workload's re-rank gathers paged
    back in.  The harness RSS cap is half the raw file: the file exceeds
    the cap, serving must stay under it.
    """
    rng = np.random.default_rng(7)
    # Floor of 4000: below that the file is so few pages that fault-around
    # granularity dominates and the residency fraction stops being about
    # the workload.
    n = max(4000, int(12000 * BENCH_SCALE))
    dim, n_clusters = 96, 16
    centers = rng.normal(size=(n_clusters, dim)).astype(np.float32) * 4
    assign = np.sort(rng.integers(0, n_clusters, size=n))
    data = (centers[assign]
            + rng.normal(size=(n, dim))).astype(np.float32)

    owns_tmp = tmp_dir is None
    tmp_dir = pathlib.Path(tmp_dir or tempfile.mkdtemp(prefix="pqmm-"))
    # Re-rank budget must not exceed the query clusters' population or the
    # shortlists spray page-ins across the whole file.
    rerank = min(200, n // n_clusters)
    store = VectorStore(dim, "l2", M=12, ef_construction=60,
                        compressed=True, pq_m=PQ_M, pq_ks=_pq_ks(n),
                        rerank=rerank, memmap_path=tmp_dir / "vectors.vecs")
    build_s, _ = timed(lambda: (store.add(data), store.build()))

    # Churn before serving: tombstoned ids must never surface from the
    # compressed path (deleted from a non-query cluster, so the recall
    # floor below is unaffected).
    far = np.flatnonzero(assign == n_clusters - 1)[:8]
    store.delete([int(i) for i in far])

    # Query workload with locality: two of the sixteen cluster regions.
    nq = 64
    qa = rng.integers(0, 2, size=nq)
    queries = (centers[qa]
               + rng.normal(size=(nq, dim))).astype(np.float32)
    gt = compute_ground_truth(data, queries, K, "l2")
    del data  # only the disk tier remains

    dc = store.dc
    assert dc.is_memmap, "store did not spill to the memmap tier"
    file_bytes = dc.memmap_path.stat().st_size
    rss_cap = file_bytes // 2

    dc.remap()                       # fresh mapping: zero resident pages
    _evict_page_cache(dc.memmap_path)
    resident_before = _mapped_rss_bytes(dc.memmap_path)

    serve_s, results = timed(lambda: store.search_batch(queries, k=K, ef=150))
    resident_after = _mapped_rss_bytes(dc.memmap_path)
    deleted = set(int(i) for i in far)
    assert not any(deleted & set(r.ids.tolist()) for r in results), (
        "tombstoned id surfaced from the compressed memmap path")
    recall = _recall(results, gt.ids)
    stats = store.stats()

    out = {
        "n": n, "dim": dim, "n_clusters": n_clusters,
        "build_s": round(build_s, 1),
        "file_bytes": int(file_bytes),
        "rss_cap_bytes": int(rss_cap),
        "resident_before_bytes": int(resident_before),
        "resident_after_serving_bytes": int(resident_after),
        "resident_fraction_of_file": round(resident_after / file_bytes, 3),
        "recall": round(recall, 4),
        "qps_cold": round(nq / serve_s, 1),
        "adc_scored": int(stats["compressed"]["adc_scored"]),
        "rerank_ndc": int(stats["compressed"]["rerank_ndc"]),
        "pagein_ms": round(stats["compressed"]["pagein_seconds"] * 1e3, 2),
    }
    store.close()
    if owns_tmp:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return out


# -- arm 4: exchange rate ----------------------------------------------------

def run_exchange_rate():
    """Full-precision NDC collapses to the re-rank budget (Sec. 3 hybrids)."""
    ds = get_dataset(NAME)
    gt = get_gt(NAME)
    fixer = get_fixed(NAME)
    ef = 6 * K
    exact_point = evaluate_index(fixer, ds.test_queries, gt, K, ef)
    pq = ProductQuantizer(m=PQ_M, ks=_pq_ks(ds.base.shape[0]),
                          metric=ds.metric, seed=0)
    arms = []
    for rerank in (2 * K, 6 * K, 12 * K):
        searcher = PQRerankSearcher(fixer, pq, rerank=rerank)
        point = evaluate_index(searcher, ds.test_queries, gt, K, ef)
        arms.append({"rerank": rerank, "recall": round(point.recall, 4),
                     "ndc_per_query": round(point.ndc_per_query, 1),
                     "adc_per_query": round(point.adc_per_query, 1)})
    return {
        "ef": ef,
        "exact_recall": round(exact_point.recall, 4),
        "exact_ndc_per_query": round(exact_point.ndc_per_query, 1),
        "arms": arms,
    }


# -- pytest entries ----------------------------------------------------------

def test_ext_pq_equal_recall(benchmark):
    results = run_equal_recall()
    rows = [(f"CSR batched ef={p['ef']}", p["recall"], p["qps"], "-", "-")
            for p in results["csr_points"]]
    rows += [(f"PQ rerank={p['rerank']} ef={p['ef']} W={p['beam_width']}",
              p["recall"], p["qps"], p["adc_per_query"],
              p["rerank_ndc_per_query"])
             for p in results["pq_points"]]
    rows.append((f"equal recall@{K} = {results['target_recall']}", "-",
                 f"{results['pq_qps_at_target']} vs "
                 f"{results['csr_qps_at_target']}",
                 f"ratio {results['qps_ratio']}", "-"))
    record(
        "ext_pq_equal_recall",
        f"compressed (ADC + re-rank, wide beam) vs CSR batched ({NAME})",
        ["arm", f"recall@{K}", "qps", "ADC/query", "exact NDC/query"],
        rows,
        notes="QPS compared at equal recall anchored at CSR ef=100; "
              "JSON copy at BENCH_pq_hybrid.json",
    )
    _merge_json({"dataset": NAME, "k": K, "scale": BENCH_SCALE,
                 "equal_recall": results})
    assert results["recall_shortfall"] <= 0.005, (
        f"PQ frontier never reaches the CSR anchor recall "
        f"(shortfall {results['recall_shortfall']})")
    assert results["qps_ratio"] >= TARGET_EQUAL_RECALL_RATIO, (
        f"compressed path {results['qps_ratio']}x CSR at equal recall, "
        f"below {TARGET_EQUAL_RECALL_RATIO}x")
    ds = get_dataset(NAME)
    index = get_hnsw(NAME)
    pq = ProductQuantizer(m=PQ_M, ks=_pq_ks(ds.base.shape[0]),
                          metric=ds.metric, seed=0)
    rerank, ef, width = PQ_CONFIGS[-1]
    searcher = PQRerankSearcher(index, pq=pq, rerank=rerank, beam_width=width)
    queries = _queries(ds)
    benchmark(lambda: searcher.search_batch(queries, K, ef, batch_size=BATCH))


def test_ext_adc_kernel(benchmark):
    results = run_adc_kernel()
    record(
        "ext_adc_kernel",
        f"ADC flat-table gather vs full-precision block kernel ({NAME})",
        ["kernel", "us/gather", "resident bytes", "speedup"],
        [("full precision", results["full_precision_us"],
          results["vector_bytes"], 1.0),
         ("ADC (m flat takes)", results["adc_us"], results["code_bytes"],
          results["kernel_speedup"])],
        notes=f"{results['rows_per_gather']} rows x "
              f"{results['block_queries']} queries per gather; "
              f"{results['compression']}x smaller resident matrix",
    )
    _merge_json({"adc_kernel": results})
    assert results["kernel_speedup"] >= TARGET_KERNEL_RATIO, (
        f"ADC kernel {results['kernel_speedup']}x, below "
        f"{TARGET_KERNEL_RATIO}x full precision")
    from repro.distances import DistanceComputer
    rng = np.random.default_rng(11)
    data = rng.normal(size=(20000, 48)).astype(np.float32)
    dc = DistanceComputer(data, "cosine")
    pq = ProductQuantizer(m=PQ_M, ks=256, metric="cosine", seed=0)
    pq.fit(data[:4000])
    adc = ADCComputer(dc, pq)
    ids = rng.integers(0, dc.size, size=3072).astype(np.int64)
    owners = np.sort(rng.integers(0, 64, size=3072)).astype(np.int64)
    qmat = np.array([dc.prepare_query(q) for q in rng.normal(size=(64, 48))])
    adc.begin_block(qmat)
    benchmark(lambda: adc.block_to_queries(ids, qmat, owners))


def test_ext_memmap_tier(benchmark, tmp_path):
    results = run_memmap_tier(tmp_dir=tmp_path)
    record(
        "ext_memmap_tier",
        "cold disk-tier serving: PQ codes navigate, re-rank pages rows in",
        ["metric", "value"],
        [("raw vector file", f"{results['file_bytes']} B"),
         ("harness RSS cap", f"{results['rss_cap_bytes']} B"),
         ("resident after serving", f"{results['resident_after_serving_bytes']} B"),
         ("resident fraction", results["resident_fraction_of_file"]),
         (f"recall@{K} (cold)", results["recall"]),
         ("qps (cold)", results["qps_cold"]),
         ("page-in time", f"{results['pagein_ms']} ms")],
        notes="mapping remapped + page cache evicted before serving; "
              "residency measured per-mapping via /proc/self/smaps",
    )
    _merge_json({"memmap_tier": results})
    assert results["file_bytes"] > results["rss_cap_bytes"], (
        "demo config does not exceed the harness RSS cap")
    assert results["resident_after_serving_bytes"] < results["rss_cap_bytes"], (
        f"serving paged in {results['resident_after_serving_bytes']} B, "
        f"over the {results['rss_cap_bytes']} B cap")
    assert results["resident_before_bytes"] <= 4 * 4096
    assert results["recall"] >= 0.75, (
        f"cold-tier recall {results['recall']} collapsed")
    # Serving time is recorded above (single cold pass; re-running would
    # measure a warm cache) — give pytest-benchmark the smaps probe.
    benchmark(lambda: _mapped_rss_bytes("vectors.vecs"))


def test_ext_pq_exchange_rate(benchmark):
    results = run_exchange_rate()
    rows = [("exact traversal", "-", results["exact_recall"],
             results["exact_ndc_per_query"], 0)]
    rows += [(f"PQ traversal + rerank {a['rerank']}", a["rerank"],
              a["recall"], a["ndc_per_query"], a["adc_per_query"])
             for a in results["arms"]]
    record(
        "ext_pq_exchange_rate",
        f"PQ/ADC traversal over HNSW-NGFix* ({NAME}, ef={results['ef']})",
        ["configuration", "rerank", f"recall@{K}", "exact NDC/query",
         "ADC lookups/query"],
        rows,
        notes="extension (Sec.3 hybrids): exact distance work collapses to "
              "the re-rank budget; recall recovers as re-rank grows",
    )
    _merge_json({"exchange_rate": results})
    for arm in results["arms"]:
        assert arm["ndc_per_query"] <= arm["rerank"] + 1
        assert arm["adc_per_query"] > arm["ndc_per_query"]
    recalls = {a["rerank"]: a["recall"] for a in results["arms"]}
    assert recalls[12 * K] >= recalls[2 * K]
    assert recalls[12 * K] >= results["exact_recall"] - 0.15
    ds = get_dataset(NAME)
    pq = ProductQuantizer(m=PQ_M, ks=_pq_ks(ds.base.shape[0]),
                          metric=ds.metric, seed=0)
    benchmark(search_op(PQRerankSearcher(get_fixed(NAME), pq, rerank=6 * K),
                        NAME, ef=results["ef"]))


def _merge_json(update):
    payload = {}
    if JSON_PATH.exists():
        payload = json.loads(JSON_PATH.read_text())
    payload.update(update)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def main():
    """CI smoke: every arm at REPRO_BENCH_SCALE, loosened gates, no JSON."""
    start = time.perf_counter()
    eq = run_equal_recall()
    print(f"equal recall : {eq}")
    csr_anchor = next(p for p in eq["csr_points"] if p["ef"] == EF_BASELINE)
    pq_best = max(p["recall"] for p in eq["pq_points"])
    assert csr_anchor["recall"] - pq_best <= SMOKE_RECALL_BAND, (
        f"compressed recall {pq_best} trails CSR {csr_anchor['recall']} "
        f"by more than {SMOKE_RECALL_BAND}")
    assert eq["qps_ratio"] >= SMOKE_EQUAL_RECALL_RATIO, (
        f"QPS ratio {eq['qps_ratio']} below smoke floor "
        f"{SMOKE_EQUAL_RECALL_RATIO}")

    kernel = run_adc_kernel(kernel_repeats=10)
    print(f"adc kernel   : {kernel}")
    assert kernel["kernel_speedup"] >= 0.9, (
        f"ADC kernel regressed to {kernel['kernel_speedup']}x")

    mm = run_memmap_tier()
    print(f"memmap tier  : {mm}")
    assert mm["file_bytes"] > mm["rss_cap_bytes"]
    assert mm["resident_after_serving_bytes"] < mm["rss_cap_bytes"]

    ex = run_exchange_rate()
    print(f"exchange     : {ex}")
    for arm in ex["arms"]:
        assert arm["ndc_per_query"] <= arm["rerank"] + 1
    print(f"smoke pass in {time.perf_counter() - start:.1f}s "
          "(recall + QPS-ratio gates at smoke thresholds)")


if __name__ == "__main__":
    main()
