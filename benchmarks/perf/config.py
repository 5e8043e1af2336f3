"""Sizes, operating point and metric catalogue of the repo benchmark.

Everything a run depends on besides ``--seed`` lives here, so two runs of
one commit differ only by the seed and the machine.  ``BENCHMARK.json`` at
the repo root repeats the metric names, units and bounds for the driver;
``tests/test_perf_contract.py`` keeps the two in step.
"""

from __future__ import annotations

import dataclasses

# -- operating point (README "Operating point") ---------------------------------
DIM = 48
K = 10
M = 12
EF_CONSTRUCTION = 60
#: Fixed search-list size of the in-process workloads (no planner).
EF = 60
#: Per-shard search-list size of ``cluster_door`` (each shard holds half the rows).
EF_SHARD = 40
BATCH = 64

#: ``laion-sim`` generator parameters (repro.datasets.registry._laion).
LAION = dict(n_clusters=20, cluster_std=0.12, gap_scale=1.0,
             query_spread=0.4, n_facets=3)

PQ_STORE = dict(compressed=True, pq_m=12, pq_ks=64, rerank=200, beam_width=8)
WAL_STORE = dict(sync_every=8, scheduler_mode="inline", merge_every=256)
FLUSH_POLICY = ("WAL frames are flushed to the OS on every append and "
                "fsynced every 8 records (sync_every=8); no auto-checkpoint")
#: Pinned off on ``cluster_door`` until ROADMAP item 1 lands (README); the
#: front door's brown-out is pinned off with them (ladder.make_door).
CLUSTER_PINS = dict(hedge=False, breaker_config={"enabled": False})
FRONTDOOR = dict(window_ms=2.0, max_batch=BATCH, max_queue=1024)

#: Op counts below are sized for about this many seconds of measurement on
#: the 2-core reference box (cluster_door's open-loop phases take them by the
#: clock); ``--seconds`` scales them linearly, so the counts (and every
#: count-derived metric) repeat exactly at one seed.
REFERENCE_SECONDS = 15

#: A traced run does a quarter of the operations.
TRACE_DIVISOR = 4

#: Open-loop arrival rate of ``cluster_door``'s poisson phase and first step
#: of the rate ladder (req/s): about a quarter of what the two shards serve
#: one query at a time, so the queue stays short (README, "Workloads").
POISSON_RATE = 40.0


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Dataset sizes and per-reference-run operation counts."""

    n_base: int
    n_train: int
    n_test: int
    warmup: int
    # read_ood / read_pq: cycles of [1 pass of n_test store.search calls,
    # batch_per_cycle passes of store.search_batch over the test set]
    read_cycles: int
    batch_per_cycle: int
    # churn_wal
    churn_rounds: int       # [8 search, observe, add, delete] rounds
    # the second recall figure (never scaled): [observe, add, delete] rounds
    # run after id 0, where HNSW starts every insert, was deleted and the next
    # compaction (tombstones > 5 % of the rows) stripped its edges; fewer
    # than lie between two compactions
    entry_delete_rounds: int
    # cluster_door: cycles of [poisson_requests open-loop arrivals, one burst
    # of BATCH simultaneous arrivals, two passes of router.search_batch]
    cluster_cycles: int
    poisson_requests: int   # per cycle
    # traced run only
    ladder_queries: int     # lone queries replayed down the layer ladder
    ladder_blocks: int      # blocks of BATCH replayed through the engine
    rate_ladder_steps: int
    rate_ladder_step_s: float


FULL = Sizes(
    n_base=2400, n_train=600, n_test=2000, warmup=200,
    read_cycles=2, batch_per_cycle=6,
    churn_rounds=700, entry_delete_rounds=100,
    cluster_cycles=4,
    poisson_requests=150,
    ladder_queries=250, ladder_blocks=4,
    rate_ladder_steps=8, rate_ladder_step_s=2.0,
)

SMOKE = Sizes(
    n_base=240, n_train=40, n_test=96, warmup=16,
    read_cycles=2, batch_per_cycle=2,
    churn_rounds=24, entry_delete_rounds=8,
    cluster_cycles=2,
    poisson_requests=20,
    ladder_queries=16, ladder_blocks=1,
    rate_ladder_steps=2, rate_ladder_step_s=0.5,
)

#: A run whose recall_at_10 falls below the floor is incorrect (exit 1).  The
#: floor is there for gross failures -- a missing partition halves recall --
#: not for drift, which the recall metrics' bounds gate: it sits well under
#: the lowest value any seed gave on any workload (0.926, ``read_pq``).
RECALL_FLOOR = 0.85

#: Limits of the Poisson rate ladder (``cluster.frontdoor.max_ok_rate_qps``).
LADDER_TAIL_LIMIT_MS = 100.0
LADDER_FAIL_LIMIT = 0.01
LADDER_COMPLETION_SHARE = 0.95

WORKLOADS = {
    "read_ood": ("in-process exact float32 store, static index: only the scalar "
                 "greedy_search, the block engine and the exact kernel do work"),
    "read_pq": ("same data and phases on PQ codes with raw vectors behind "
                "np.memmap: ADC scorer, wide beam, exact re-rank gather"),
    "churn_wal": ("durable store under search+observe+add+delete rounds, then "
                  "kill-copy recovery: WAL, overlay, merges, repair beside reads"),
    "cluster_door": ("2 shard workers behind FrontDoor, open-loop Poisson and "
                     "burst arrivals: coalescing, scatter/merge, framing, sockets"),
}

# (name, unit, better, bound).  A bound is the figure the issue asked for
# (0.10 timings, 0.01 recalls, 0.02 bytes), widened where twice the worst
# spread or between-set drift recorded in aa_spreads.json exceeds it, to the
# next of 0.01 0.02 0.03 0.05 0.10 0.15 0.20 0.25 (the driver's cap);
# ``setup_s`` carries the largest, as the driver requires.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("recall_at_10", "ratio", "higher", 0.02),
    ("tail_recall_at_10", "ratio", "higher", 0.10),
    ("resident_bytes_per_vector", "B", "lower", 0.02),
]

# (name, unit, better) -- report-only; 0 on a workload that bypasses the layer.
PER_LAYER = [
    ("graphs.hnsw.build_s", "s", "lower"),
    ("graphs.hnsw.recall_after_entry_delete", "ratio", "higher"),
    ("core.fixer.fit_s", "s", "lower"),
    ("core.fixer.extra_edges", "count", "lower"),
    ("core.fixer.fix_query_ms", "ms", "lower"),
    ("distances.ndc_per_query", "count", "lower"),
    ("distances.kernel_ns_per_dist", "ns", "lower"),
    ("quantization.adc_scored_per_query", "count", "lower"),
    ("quantization.rerank_ndc_per_query", "count", "lower"),
    ("quantization.adc_ns_per_code", "ns", "lower"),
    ("quantization.pagein_s", "s", "lower"),
    ("quantization.code_bytes_per_vector", "B", "lower"),
    ("graphs.search.scalar_us", "us", "lower"),
    ("graphs.search.block_ms", "ms", "lower"),
    ("graphs.search.hops_per_query", "count", "lower"),
    ("graphs.search.frontier_peak_mean", "count", "lower"),
    ("serving.pin_us", "us", "lower"),
    ("serving.search_self_us", "us", "lower"),
    ("serving.batch_self_us_per_query", "us", "lower"),
    ("serving.merges", "count", "lower"),
    ("serving.merge_s", "s", "lower"),
    ("serving.repairs", "count", "lower"),
    ("serving.repair_s", "s", "lower"),
    ("serving.overlay_ops_mean", "count", "lower"),
    ("serving.degraded", "count", "lower"),
    ("store.search_self_us", "us", "lower"),
    ("store.insert_p50_ms", "ms", "lower"),
    ("store.insert_tail_ms", "ms", "lower"),
    ("store.delete_p50_us", "us", "lower"),
    ("store.delete_max_ms", "ms", "lower"),
    ("durability.wal_append_us", "us", "lower"),
    ("durability.wal_fsyncs", "count", "lower"),
    ("durability.wal_bytes_per_user_byte", "ratio", "lower"),
    ("durability.checkpoint_s", "s", "lower"),
    ("durability.snapshot_load_s", "s", "lower"),
    ("durability.replay_s", "s", "lower"),
    ("durability.replayed_records", "count", "lower"),
    ("durability.recover_s", "s", "lower"),
    ("cluster.protocol.encode_us", "us", "lower"),
    ("cluster.protocol.decode_us", "us", "lower"),
    ("cluster.protocol.bytes_per_query", "B", "lower"),
    ("cluster.worker.search_ms", "ms", "lower"),
    ("cluster.worker.load_s", "s", "lower"),
    ("cluster.router.rpc_ms_p50", "ms", "lower"),
    ("cluster.router.rpc_ms_tail", "ms", "lower"),
    ("cluster.router.merge_us", "us", "lower"),
    ("cluster.router.search_self_ms", "ms", "lower"),
    ("cluster.router.retries", "count", "lower"),
    ("cluster.router.degraded", "count", "lower"),
    ("cluster.router.hedges", "count", "lower"),
    ("cluster.router.breaker_trips", "count", "lower"),
    ("cluster.frontdoor.wait_ms_p50", "ms", "lower"),
    ("cluster.frontdoor.mean_batch", "count", "higher"),
    ("cluster.frontdoor.blocks", "count", "lower"),
    ("cluster.frontdoor.max_depth", "count", "lower"),
    ("cluster.frontdoor.shed", "count", "lower"),
    ("cluster.frontdoor.brownout_blocks", "count", "lower"),
    ("cluster.frontdoor.max_ok_rate_qps", "1/s", "higher"),
    ("cluster.frontdoor.burst_p50_ms", "ms", "lower"),
    ("cluster.frontdoor.burst_tail_ms", "ms", "lower"),
    ("loadgen.late_tail_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("harness.query_p95_ms", "ms", "lower"),
    ("harness.query_tail_ms", "ms", "lower"),
    ("harness.fail_ratio", "ratio", "lower"),
]


def scaled(sizes: Sizes, seconds: float, trace: bool) -> Sizes:
    """Scale the operation counts to ``seconds`` (and a quarter when traced)."""
    factor = seconds / REFERENCE_SECONDS / (TRACE_DIVISOR if trace else 1)

    def n(count: int, floor: int = 1) -> int:
        return max(floor, round(count * factor))

    return dataclasses.replace(
        sizes,
        read_cycles=n(sizes.read_cycles),
        churn_rounds=n(sizes.churn_rounds, 10),
        cluster_cycles=n(sizes.cluster_cycles),
    )
