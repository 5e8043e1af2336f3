"""Shared benchmark infrastructure: cached datasets/indexes, standard
parameters, paper-table recording.

Every benchmark reproduces one table or figure of the paper at reduced scale
(see DESIGN.md).  Indexes are built once per dataset and *cloned* for any arm
that mutates the graph, so a full benchmark run stays in the minutes range.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 0.5 → 2 000-point corpora; 1.0 → 4 000).

Tables are both printed and appended to ``benchmarks/results/``; the
``conftest.py`` terminal-summary hook re-emits them at the end of the run so
they survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib
import time


from repro import (
    HNSW,
    NSG,
    FixConfig,
    NGFixer,
    RoarGraph,
    compute_ground_truth,
    load_dataset,
)
from repro.evalx import format_table, sweep

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

# Evaluation constants (paper uses k=100 at 10M scale; k=10 here).
K = 10
EFS = [10, 15, 20, 30, 45, 70, 100, 150, 220, 320]

# Standard index parameters, scaled analogues of Sec. 6.1's settings.
HNSW_PARAMS = dict(M=12, ef_construction=60)
NSG_PARAMS = dict(R=24, L=60, knn_k=24)
ROAR_PARAMS = dict(M=24, n_query_neighbors=32, knn_k=16)
FIX_PARAMS = dict(k=K, hard_ratio=3.0, max_extra_degree=12,
                  preprocess="exact", rounds=(K,))

_cache: dict = {}


def _memo(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def get_dataset(name: str):
    return _memo(("ds", name),
                 lambda: load_dataset(name, seed=BENCH_SEED, scale=BENCH_SCALE))


def get_gt(name: str, k: int = K, queries: str = "test"):
    def build():
        ds = get_dataset(name)
        qs = ds.test_queries if queries == "test" else ds.train_queries
        return compute_ground_truth(ds.base, qs, k, ds.metric)
    return _memo(("gt", name, k, queries), build)


def get_id_gt(name: str, k: int = K):
    def build():
        ds = get_dataset(name)
        return compute_ground_truth(ds.base, ds.id_queries, k, ds.metric)
    return _memo(("idgt", name, k), build)


def get_hnsw(name: str):
    """The cached base HNSW — NEVER mutate; clone() for fixing arms."""
    def build():
        ds = get_dataset(name)
        return HNSW(ds.base, ds.metric, **HNSW_PARAMS)
    return _memo(("hnsw", name), build)


def get_nsg(name: str):
    def build():
        ds = get_dataset(name)
        return NSG(ds.base, ds.metric, **NSG_PARAMS)
    return _memo(("nsg", name), build)


def get_roargraph(name: str, history_fraction: float = 1.0):
    def build():
        ds = get_dataset(name)
        n = int(round(history_fraction * len(ds.train_queries)))
        return RoarGraph(ds.base, ds.metric, ds.train_queries[:n], **ROAR_PARAMS)
    return _memo(("roar", name, history_fraction), build)


def get_fixed(name: str, history_fraction: float = 1.0, **config_overrides):
    """HNSW-NGFix*: clone the cached base graph, fit on (a slice of) the
    history.  Cached per parameterization."""
    key = ("fixed", name, history_fraction, tuple(sorted(config_overrides.items())))

    def build():
        ds = get_dataset(name)
        params = dict(FIX_PARAMS)
        params.update(config_overrides)
        fixer = NGFixer(get_hnsw(name).clone(), FixConfig(**params))
        n = int(round(history_fraction * len(ds.train_queries)))
        fixer.fit(ds.train_queries[:n])
        return fixer
    return _memo(key, build)


def sweep_index(index, name: str, k: int = K, efs=None, queries=None, gt=None):
    ds = get_dataset(name)
    if queries is None:
        queries = ds.test_queries
    if gt is None:
        gt = get_gt(name, k)
    return sweep(index, queries, gt, k, efs or EFS)


def curve_rows(points):
    """(ef, recall, rderr, qps, ndc) rows for a sweep result."""
    return [(p.ef, round(p.recall, 4), round(p.rderr, 6), round(p.qps, 1),
             round(p.ndc_per_query, 1)) for p in points]


def record(exp_id: str, title: str, headers, rows, notes: str = "") -> str:
    """Print and persist one paper-style table."""
    table = format_table(headers, rows, title=f"[{exp_id}] {title}")
    if notes:
        table += f"\n  note: {notes}"
    print("\n" + table)
    path = RESULTS_DIR / f"{exp_id}.txt"
    path.write_text(table + "\n")
    return table


def timed(fn):
    """(seconds, result) of calling fn."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def search_op(index, name: str, ef: int = 45, k: int = K):
    """A representative single-query search callable for pytest-benchmark."""
    ds = get_dataset(name)
    queries = ds.test_queries
    state = {"i": 0}

    def op():
        q = queries[state["i"] % len(queries)]
        state["i"] += 1
        return index.search(q, k=k, ef=ef)
    return op
