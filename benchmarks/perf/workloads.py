"""The four workloads: set-up, timed phases and correctness checks.

Each workload builds its system cold (``setup_s``), warms up, runs fixed
operation counts so count-derived metrics repeat exactly at one seed, checks
every answer against the oracle, and fills ``run.e2e`` (end-to-end metrics)
and ``run.layers`` (per-layer metrics).  A traced run does a quarter of the
operations and then replays a sample down the layer ladder (:mod:`ladder`).
"""

from __future__ import annotations

import asyncio
import pathlib
import shutil
import time

import numpy as np

from perf import config as cfg
from perf import ladder
from perf.measure import median, open_loop, poisson_schedule, tail_value
from perf.oracle import (Tally, ground_truth, pad_ids, recall_rows,
                         recall_summary)
from perf.trace import Tracer

from repro.cluster import ClusterRouter
from repro.datasets.crossmodal import CrossModalConfig, make_cross_modal_dataset
from repro.distances import Metric
from repro.durability import recover
from repro.store import VectorStore

pc = time.perf_counter


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, seed: int, sizes: cfg.Sizes, trace: bool,
                 tmp: pathlib.Path):
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self.tracer = Tracer() if trace else None
        self.tally = Tally()
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        #: metric name -> sample count (timings) or note (e.g. percentile)
        self.samples: dict[str, str] = {}
        self.info: dict = {}

    def query_timing(self, seconds) -> None:
        """Single-query latency: the gated median of every sample, and the
        report-only tails (p95 of every sample, :func:`tail_value`)."""
        ms = np.asarray(seconds) * 1e3
        tail, pct = tail_value(ms)
        self.e2e["query_p50_ms"] = median(ms)
        self.layers["harness.query_p95_ms"] = float(np.percentile(ms, 95))
        self.layers["harness.query_tail_ms"] = tail
        self.samples["query_p50_ms"] = f"n={ms.size}"
        self.samples["harness.query_p95_ms"] = f"n={ms.size}"
        self.samples["harness.query_tail_ms"] = f"n={ms.size} p{pct:.2f}"

    def layer_timing(self, p50_name: str, tail_name: str, seconds) -> None:
        """A report-only latency in ms: median and :func:`tail_value`."""
        ms = np.asarray(seconds) * 1e3
        tail, pct = tail_value(ms)
        self.layers[p50_name] = median(ms)
        self.layers[tail_name] = tail
        self.samples[p50_name] = f"n={ms.size}"
        self.samples[tail_name] = f"n={ms.size} p{pct:.2f}"

    def batch_rate(self, per_second, n_queries: int) -> None:
        """The gated bulk throughput: median over ``search_batch`` passes."""
        self.e2e["ops_per_s"] = median(per_second)
        self.samples["ops_per_s"] = (f"n={len(per_second)} passes of "
                                     f"{n_queries} queries")


def make_dataset(seed: int, sizes: cfg.Sizes):
    """The ``laion-sim`` generator at the benchmark's sizes, from ``seed``."""
    return make_cross_modal_dataset("laion-sim", CrossModalConfig(
        n_base=sizes.n_base, n_train=sizes.n_train, n_test=sizes.n_test,
        dim=cfg.DIM, metric=Metric.COSINE, seed=seed, **cfg.LAION))


def record_setup(run: Run, stages: dict) -> None:
    """``setup_s`` and the per-stage layer metrics of one cold set-up."""
    stages = dict(stages)
    run.e2e["setup_s"] = stages.pop("setup")
    run.samples["setup_s"] = "n=1"
    run.layers.update(stages)


def build_store(run: Run, directory: pathlib.Path, store_kw: dict, durable: bool):
    kw = dict(store_kw)
    if kw.get("compressed"):
        kw["memmap_path"] = directory / "vectors.f32"
    if durable:
        kw["wal_dir"] = directory / "wal"
    t0 = pc()
    ds = make_dataset(run.seed, run.sizes)
    store = VectorStore(dim=cfg.DIM, metric="cosine", M=cfg.M,
                        ef_construction=cfg.EF_CONSTRUCTION, seed=run.seed, **kw)
    store.add(ds.base)
    t1 = pc()
    store.build()
    t2 = pc()
    store.fit_history(ds.train_queries)
    t3 = pc()
    stages = {"graphs.hnsw.build_s": t2 - t1, "core.fixer.fit_s": t3 - t2}
    if durable:
        store.checkpoint()
        stages["durability.checkpoint_s"] = pc() - t3
    stages["setup"] = pc() - t0
    return store, ds, stages


def collect(results):
    """``(found, degraded)`` arrays from a list of ``SearchResult``."""
    found = np.stack([pad_ids(r.ids, cfg.K) for r in results])
    degraded = np.fromiter((bool(r.degraded) for r in results), dtype=bool,
                           count=len(results))
    return found, degraded


def search_counters(store) -> np.ndarray:
    """``[ndc, adc_scored, rerank_ndc, pagein_seconds]`` so far."""
    searcher = store.searcher.stats()
    return np.array([store.dc.ndc, searcher["adc_scored"],
                     searcher["rerank_ndc"], searcher["pagein_seconds"]],
                    dtype=np.float64)


def maintenance_counters(store) -> dict:
    stats = store.stats()
    serving = stats.get("serving", {})
    return {
        "degraded": store.searcher.stats()["n_degraded"],
        "merges": serving.get("merges", 0),
        "repairs": serving.get("repairs", 0),
        "merge_seconds": serving.get("merge_seconds", 0.0),
        "repair_seconds": serving.get("repair_seconds", 0.0),
        "fsyncs": stats.get("wal", {}).get("fsyncs", 0),
    }


def resident_bytes_per_vector(stats_list: list[dict], live: int) -> float:
    """(index bytes + RAM-resident vector or PQ-code bytes) / live vectors.

    Raw vectors behind ``np.memmap`` are not resident; their PQ codes are.
    """
    total = 0
    for stats in stats_list:
        total += stats["index_size_bytes"]
        if "compressed" in stats:
            total += stats["compressed"]["code_bytes"]
        if "memmap" not in stats:
            total += stats["n_nodes"] * cfg.DIM * 4
    return total / live


def single_pass(run: Run, store, queries, ef: int):
    """Closed loop, one client: one ``store.search`` per query.

    Returns ``(latency_s, found ids padded with -1)``.
    """
    n = len(queries)
    latency = np.empty(n)
    found = np.full((n, cfg.K), -1, dtype=np.int64)
    raised = np.zeros(n, dtype=bool)
    for i in range(n):
        query = queries[i]
        t = pc()
        try:
            hits = store.search(query, k=cfg.K, ef=ef)
        except Exception:
            hits = ()
            raised[i] = True
        latency[i] = pc() - t
        found[i, :len(hits)] = [h[0] for h in hits]
    run.tally.check_results(found, raised, np.zeros(n, dtype=bool),
                            np.zeros((n, cfg.K), dtype=bool))
    return latency, found


def batch_passes(run: Run, search_batch, queries, passes: int, ef: int):
    """Closed loop: ``passes`` x ``search_batch`` (blocks of 64) over
    ``queries``.  Returns ``(qps per pass, results of the last pass)``."""
    n = len(queries)
    no_dead = np.zeros((n, cfg.K), dtype=bool)
    never = np.zeros(n, dtype=bool)
    qps, results = [], []
    for _ in range(passes):
        t = pc()
        try:
            results = search_batch(queries, k=cfg.K, ef=ef, batch_size=cfg.BATCH)
        except Exception:
            run.tally.fail("raised", n)
            continue
        qps.append(n / (pc() - t))
        found, degraded = collect(results)
        run.tally.check_results(found, never, degraded, no_dead)
    return qps, results


def record_recall(run: Run, per_query: np.ndarray) -> None:
    mean, worst = recall_summary(per_query)
    run.e2e["recall_at_10"] = mean
    run.e2e["tail_recall_at_10"] = worst
    run.samples["recall_at_10"] = f"n={per_query.size}"
    run.samples["tail_recall_at_10"] = f"n={max(1, per_query.size // 10)}"


def record_search_counters(run: Run, spent: np.ndarray, n: int) -> None:
    """``spent``: :func:`search_counters` difference over ``n`` single queries."""
    layers = run.layers
    layers["distances.ndc_per_query"] = spent[0] / n
    layers["quantization.adc_scored_per_query"] = spent[1] / n
    layers["quantization.rerank_ndc_per_query"] = spent[2] / n
    layers["quantization.pagein_s"] = spent[3]


def record_maintenance(run: Run, before: dict, after: dict) -> None:
    layers = run.layers
    layers["serving.merges"] = after["merges"] - before["merges"]
    layers["serving.repairs"] = after["repairs"] - before["repairs"]
    layers["serving.merge_s"] = after["merge_seconds"] - before["merge_seconds"]
    layers["serving.repair_s"] = after["repair_seconds"] - before["repair_seconds"]
    layers["serving.degraded"] = after["degraded"] - before["degraded"]
    layers["durability.wal_fsyncs"] = after["fsyncs"] - before["fsyncs"]
    if layers["serving.degraded"]:
        run.tally.fail("degraded", int(layers["serving.degraded"]))


# -- read_ood / read_pq -----------------------------------------------------------


def run_read(run: Run, store_kw: dict) -> None:
    sizes = run.sizes
    store, ds, stages = build_store(run, run.tmp, store_kw, durable=False)
    record_setup(run, stages)
    try:
        test = ds.test_queries
        truth = ground_truth(ds.base, test, cfg.K)
        for query in test[:sizes.warmup]:
            store.search(query, k=cfg.K, ef=cfg.EF)
        store.search_batch(test[:2 * cfg.BATCH], k=cfg.K, ef=cfg.EF,
                           batch_size=cfg.BATCH)

        # Single-query and bulk passes alternate, so a slow spell of the
        # machine touches a few passes of each and the medians shrug it off.
        before = maintenance_counters(store)
        spent = np.zeros(4)
        latencies, qps = [], []
        recall = results = None
        for _ in range(sizes.read_cycles):
            counters = search_counters(store)
            latency, found = single_pass(run, store, test, cfg.EF)
            spent += search_counters(store) - counters
            latencies.append(latency)
            if recall is None:
                recall = recall_rows(found, truth)
            rates, results = batch_passes(run, store.search_batch, test,
                                          sizes.batch_per_cycle, cfg.EF)
            qps += rates
        latency = np.concatenate(latencies)
        run.query_timing(latency)
        record_recall(run, recall)
        record_search_counters(run, spent, latency.size)
        run.batch_rate(qps, len(test))
        run.info["batch_recall_at_10"] = float(
            recall_rows(collect(results)[0], truth).mean())
        run.layers["graphs.search.hops_per_query"] = float(
            np.mean([r.n_hops for r in results]))
        record_maintenance(run, before, maintenance_counters(store))

        stats = store.stats()
        run.e2e["resident_bytes_per_vector"] = resident_bytes_per_vector(
            [stats], len(store))
        run.layers["core.fixer.extra_edges"] = stats["n_extra_edges"]
        if "compressed" in stats:
            run.layers["quantization.code_bytes_per_vector"] = (
                stats["compressed"]["code_bytes"] / stats["n_nodes"])
        if run.tracer is not None:
            sample = test[:sizes.ladder_queries]
            ladder.search_ladder(run, store, sample, cfg.EF)
            ladder.block_ladder(run, store, test, cfg.EF)
    finally:
        store.close()


# -- churn_wal ----------------------------------------------------------------------


def live_recall(run: Run, store, vectors, live, queries):
    """One bulk pass over ``queries``, against brute force over the ``live``
    ids: ``(recall per query, results)``; a returned dead id is a failure."""
    live_mask = np.zeros(len(vectors), dtype=bool)
    live_mask[live] = True
    truth = ground_truth(vectors, queries, cfg.K, live=live_mask)
    _, results = batch_passes(run, store.search_batch, queries, 1, cfg.EF)
    found = collect(results)[0]
    stale = ~live_mask[np.where(found >= 0, found, 0)] & (found >= 0)
    if stale.any():
        run.tally.fail("deleted_id", int(stale.any(axis=1).sum()))
    return recall_rows(found, truth), results


def run_churn(run: Run) -> None:
    sizes = run.sizes
    store, ds, stages = build_store(run, run.tmp, cfg.WAL_STORE, durable=True)
    record_setup(run, stages)
    recovered = None
    try:
        wal_dir = store.wal.directory
        checkpoint_copy = run.tmp / "checkpoint-copy"
        if run.tracer is not None:
            shutil.copytree(wal_dir, checkpoint_copy)
        wal_bytes0 = sum(p.stat().st_size for p in wal_dir.glob("wal-*.log"))
        test = ds.test_queries
        n_test = len(test)
        for query in test[:sizes.warmup]:
            store.search(query, k=cfg.K, ef=cfg.EF)

        rng = np.random.default_rng([run.seed, 1])
        rounds = sizes.churn_rounds
        per_round = 8
        # Rows: the base, one insert per round, and the second recall figure's
        # (a compaction comes within 5 % of the rows, then its own rounds).
        capacity = (sizes.n_base + rounds) * 11 // 10 + sizes.entry_delete_rounds
        vectors = np.zeros((capacity, cfg.DIM), dtype=np.float32)
        vectors[:sizes.n_base] = ds.base
        #: round after which an id may no longer be returned
        death_round = np.full(capacity, np.iinfo(np.int64).max, dtype=np.int64)
        # Id 0 is not deleted here but in the second recall figure below: it
        # is where HNSW starts every insert, and once a compaction strips its
        # edges later inserts are unreachable (README, "Known finding").  With
        # uniform deletes that would hit some seeds and not others.
        live = list(range(1, sizes.n_base))
        found = np.full((rounds * per_round, cfg.K), -1, dtype=np.int64)
        raised = np.zeros(rounds * per_round, dtype=bool)
        t_search = np.empty(rounds * per_round)
        t_observe, t_add, t_delete = (np.empty(rounds) for _ in range(3))
        overlay_ops = np.empty(rounds)

        before = maintenance_counters(store)
        cursor = search_ndc = 0
        start = pc()
        for r in range(rounds):
            ndc0 = store.dc.ndc
            for _ in range(per_round):
                query = test[cursor % n_test]
                t = pc()
                try:
                    hits = store.search(query, k=cfg.K, ef=cfg.EF)
                except Exception:
                    hits = ()
                    raised[cursor] = True
                t_search[cursor] = pc() - t
                found[cursor, :len(hits)] = [h[0] for h in hits]
                cursor += 1
            search_ndc += store.dc.ndc - ndc0  # repair and insert search too
            query = test[cursor % n_test]
            t = pc()
            accepted = store.observe(query)
            t_observe[r] = pc() - t
            if accepted:
                run.tally.ok()
            else:
                run.tally.fail("observe_shed")
            row = ds.base[rng.integers(sizes.n_base)]
            vector = row + 0.05 * rng.standard_normal(cfg.DIM).astype(np.float32)
            t = pc()
            new_id = store.add(vector)[0]
            t_add[r] = pc() - t
            vectors[new_id] = vector
            live.append(new_id)
            run.tally.ok()
            slot = int(rng.integers(len(live)))
            victim = live[slot]
            live[slot] = live[-1]
            live.pop()
            t = pc()
            store.delete([victim])
            t_delete[r] = pc() - t
            death_round[victim] = r
            run.tally.ok()
            overlay_ops[r] = store.epochs.stats()["overlay_ops"]
        wall = pc() - start
        after = maintenance_counters(store)

        search_round = np.repeat(np.arange(rounds), per_round)
        dead = np.where(found >= 0, death_round[found], np.iinfo(np.int64).max) \
            < search_round[:, None]
        run.tally.check_results(found, raised, np.zeros(len(found), dtype=bool), dead)

        mixed_ops = rounds * (per_round + 3)
        run.e2e["ops_per_s"] = mixed_ops / wall
        run.samples["ops_per_s"] = f"n={mixed_ops} mixed ops / wall-clock"
        run.query_timing(t_search)
        run.layer_timing("store.insert_p50_ms", "store.insert_tail_ms", t_add)
        run.layers["core.fixer.fix_query_ms"] = median(t_observe * 1e3)
        run.layers["store.delete_p50_us"] = median(t_delete * 1e6)
        run.layers["store.delete_max_ms"] = float(t_delete.max() * 1e3)
        run.layers["serving.overlay_ops_mean"] = float(overlay_ops.mean())
        run.layers["distances.ndc_per_query"] = search_ndc / t_search.size
        record_maintenance(run, before, after)
        wal_bytes = sum(p.stat().st_size for p in wal_dir.glob("wal-*.log"))
        run.layers["durability.wal_bytes_per_user_byte"] = (
            (wal_bytes - wal_bytes0) / (rounds * cfg.DIM * 4))

        live.append(0)
        recall, results = live_recall(run, store, vectors, live, test)
        record_recall(run, recall)
        run.layers["graphs.search.hops_per_query"] = float(
            np.mean([r.n_hops for r in results]))
        stats = store.stats()
        run.e2e["resident_bytes_per_vector"] = resident_bytes_per_vector(
            [stats], len(store))
        run.layers["core.fixer.extra_edges"] = stats["n_extra_edges"]
        if run.tracer is not None:
            ladder.search_ladder(run, store, test[:sizes.ladder_queries], cfg.EF)
            ladder.block_ladder(run, store, test, cfg.EF)
            ladder.wal_ladder(run, vectors[:sizes.ladder_queries])

        # Process-kill semantics: byte copy without close().  The OS cache
        # survives a kill, so unsynced-but-flushed frames are in the copy;
        # power loss is not measurable here.
        crash_copy = run.tmp / "crash-copy"
        shutil.copytree(wal_dir, crash_copy)
        t = pc()
        recovered, report = recover(crash_copy)
        probe = recovered.search(test[0], k=cfg.K, ef=cfg.EF)
        recover_s = pc() - t
        replayed = sum(report.replayed[op] for op in
                       ("insert", "delete", "observe", "merge_cut", "build"))
        recovered_live = set(range(recovered.dc.size)) - recovered.deleted_ids
        if (recovered_live != set(live) or not report.consistent
                or replayed <= 0 or len(probe) != cfg.K):
            run.tally.fail("recovery")
            run.info["recovery_errors"] = report.errors
        else:
            run.tally.ok()
        run.layers["durability.recover_s"] = recover_s
        run.layers["durability.replayed_records"] = replayed
        if run.tracer is not None:
            t = pc()
            snapshot_only, _ = recover(checkpoint_copy, attach_wal=False)
            run.layers["durability.snapshot_load_s"] = pc() - t
            run.layers["durability.replay_s"] = (
                recover_s - run.layers["durability.snapshot_load_s"])
            snapshot_only.close()

        # Second recall figure (README, "Known finding"): delete id 0, churn
        # until the next compaction strips its edges, then entry_delete_rounds
        # more -- fewer than lie between two compactions, because the next
        # one's repair reconnects what the inserts in between could not reach.
        def churn_round(r: int) -> bool:
            store.observe(test[r % n_test])
            row = ds.base[rng.integers(sizes.n_base)]
            vector = row + 0.05 * rng.standard_normal(cfg.DIM).astype(np.float32)
            new_id = store.add(vector)[0]
            vectors[new_id] = vector
            live.append(new_id)
            run.tally.ok(3)
            return store.delete([live.pop(int(rng.integers(len(live))))])

        live.remove(0)
        store.delete([0])
        spare = capacity - store.dc.size - sizes.entry_delete_rounds
        if not any(churn_round(r) for r in range(spare)):
            raise RuntimeError(f"no delete compaction within {spare} rounds of "
                               "the entry's deletion")
        for r in range(sizes.entry_delete_rounds):
            churn_round(r)
        run.layers["graphs.hnsw.recall_after_entry_delete"] = float(
            live_recall(run, store, vectors, live, test)[0].mean())
        run.info["flush_policy"] = cfg.FLUSH_POLICY
        run.info["recovery"] = "byte copy of wal_dir without close() (process kill)"
    finally:
        store.close()
        if recovered is not None:
            recovered.close()


# -- cluster_door -------------------------------------------------------------------


def build_cluster(run: Run, directory: pathlib.Path):
    t0 = pc()
    ds = make_dataset(run.seed, run.sizes)
    router = ClusterRouter(
        dim=cfg.DIM, metric="cosine", n_shards=2, n_replicas=1,
        base_dir=directory / "shards", M=cfg.M,
        ef_construction=cfg.EF_CONSTRUCTION, seed=run.seed, **cfg.CLUSTER_PINS)
    t1 = pc()
    try:
        router.load(ds.base, train_queries=ds.train_queries)
    except BaseException:
        router.close()
        raise
    t2 = pc()
    return router, ds, {"setup": t2 - t0, "cluster.worker.load_s": t2 - t1}


async def drive_door(router, due, queries):
    """Open-loop requests through a fresh FrontDoor.

    Returns ``(latency_s, late_s, ok, found, degraded, door stats)``.
    """
    door = ladder.make_door(router)
    n = len(due)
    found = np.full((n, cfg.K), -1, dtype=np.int64)
    degraded = np.zeros(n, dtype=bool)

    async def request(i: int) -> bool:
        result = await door.search(queries[i % len(queries)])
        found[i] = pad_ids(result.ids, cfg.K)
        degraded[i] = bool(result.degraded)
        return True

    try:
        latency, late, ok = await open_loop(due, request)
        stats = door.stats()
    finally:
        await door.drain()
    return latency, late, ok, found, degraded, stats


def door_phase(router, due, queries, truth, tally: Tally, first: int = 0):
    """One open-loop phase; request ``i`` carries query ``first + i`` (wrapping).

    Returns ``(latency_s, late_s, recall per request, door stats)``.
    """
    order = (first + np.arange(len(due))) % len(queries)
    latency, late, ok, found, degraded, stats = asyncio.run(
        drive_door(router, due, queries[order]))
    tally.check_results(found, ~ok, degraded,
                        np.zeros(found.shape, dtype=bool))
    return latency, late, recall_rows(found, truth[order]), stats


def rate_ladder(run: Run, router, queries, truth, rng) -> None:
    """Highest Poisson rate the door holds: steps of x1.25 from the phase
    rate, each kept if its tail latency from due time, failures and
    completions within the step all meet their limits.  The ladder overloads
    on purpose, so its failures go to a tally of their own."""
    sizes = run.sizes
    best = 0.0
    steps = []
    for step in range(sizes.rate_ladder_steps):
        rate = cfg.POISSON_RATE * 1.25 ** step
        due = poisson_schedule(rate, int(rate * sizes.rate_ladder_step_s), rng)
        tally = Tally()
        latency, _, _, _ = door_phase(router, due, queries, truth, tally)
        tail_ms = tail_value(latency * 1e3)[0]
        # No growing backlog: answered by the time the last one was due.
        done = float(((due + latency) <= due[-1]).mean())
        held = (tail_ms <= cfg.LADDER_TAIL_LIMIT_MS
                and tally.fail_ratio <= cfg.LADDER_FAIL_LIMIT
                and done >= cfg.LADDER_COMPLETION_SHARE)
        steps.append({"rate_per_s": rate, "tail_ms": tail_ms,
                      "fail_ratio": tally.fail_ratio, "completed": done,
                      "held": held})
        if not held:
            break
        best = rate
    run.layers["cluster.frontdoor.max_ok_rate_qps"] = best
    run.info["rate_ladder"] = steps


def run_cluster(run: Run) -> None:
    sizes = run.sizes
    router, ds, stages = build_cluster(run, run.tmp)
    record_setup(run, stages)
    try:
        test = ds.test_queries
        truth = ground_truth(ds.base, test, cfg.K)
        for query in test[:sizes.warmup // 2]:
            router.search(query, k=cfg.K, ef=cfg.EF_SHARD)
        router.search_batch(test, k=cfg.K, ef=cfg.EF_SHARD, batch_size=cfg.BATCH)
        rng = np.random.default_rng([run.seed, 2])

        # Cycles of [poisson, burst, batch], so a slow spell of the machine
        # touches a part of each phase and the medians shrug it off.
        ndc0 = arrivals = 0
        poisson, lateness, recalls, bursts, qps, doors = [], [], [], [], [], []
        for cycle in range(sizes.cluster_cycles):
            # poisson: open loop, independent users.
            ndc_before = router.dc.ndc
            due = poisson_schedule(cfg.POISSON_RATE, sizes.poisson_requests,
                                   rng)
            latency, late, recall, door = door_phase(
                router, due, test, truth, run.tally, first=arrivals)
            ndc0 += router.dc.ndc - ndc_before
            arrivals += len(due)
            poisson.append(latency)
            lateness.append(late)
            recalls.append(recall)
            doors.append(door)
            # burst: 64 arrivals at the same instant.
            bursts.append(door_phase(router, np.zeros(cfg.BATCH), test, truth,
                                     run.tally)[0])
            # batch: closed loop, one bulk caller.
            rates, results = batch_passes(run, router.search_batch, test, 2,
                                          cfg.EF_SHARD)
            qps += rates

        run.query_timing(np.concatenate(poisson))
        run.layer_timing("cluster.frontdoor.burst_p50_ms",
                         "cluster.frontdoor.burst_tail_ms", np.concatenate(bursts))
        run.batch_rate(qps, len(test))
        # The bulk pass covers the whole test set, the arrivals a part of it:
        # recall is reported from the first and held to the floor on both.
        record_recall(run, recall_rows(collect(results)[0], truth))
        door_recall = float(np.concatenate(recalls).mean())
        run.info["door_recall_at_10"] = door_recall
        if door_recall < cfg.RECALL_FLOOR:
            run.tally.fail("door_recall_below_floor")
        run.layers["distances.ndc_per_query"] = ndc0 / arrivals
        run.layers["loadgen.late_tail_ms"] = tail_value(
            np.concatenate(lateness) * 1e3)[0]
        blocks = sum(d["blocks"] for d in doors)
        run.layers["cluster.frontdoor.blocks"] = blocks
        run.layers["cluster.frontdoor.mean_batch"] = (
            sum(d["dispatched"] for d in doors) / blocks)
        run.layers["cluster.frontdoor.max_depth"] = max(
            d["max_depth_seen"] for d in doors)
        run.layers["cluster.frontdoor.shed"] = sum(d["shed"] for d in doors)
        run.layers["cluster.frontdoor.brownout_blocks"] = sum(
            d["brownout_blocks"] for d in doors)
        run.info["poisson"] = {"rate_per_s": cfg.POISSON_RATE,
                               "requests": arrivals}

        snapshot = router.stats()
        shards = snapshot["shards"]
        run.e2e["resident_bytes_per_vector"] = resident_bytes_per_vector(
            shards, sum(s["n_gids"] for s in shards))
        run.layers["core.fixer.extra_edges"] = sum(
            s["n_extra_edges"] for s in shards)
        for key in ("retries", "degraded", "hedges", "breaker_trips"):
            run.layers[f"cluster.router.{key}"] = snapshot["router"][key]
        pinned_off = sum(snapshot["router"][key] for key in
                         ("retries", "hedges", "breaker_trips"))
        pinned_off += run.layers["cluster.frontdoor.brownout_blocks"]
        if pinned_off:
            run.tally.fail("pinned_setting_fired", int(pinned_off))
        run.info["pinned"] = {**cfg.CLUSTER_PINS, "brownout": "off"}
        if run.tracer is not None:
            ladder.cluster_ladder(run, router, test[:sizes.ladder_queries])
            rate_ladder(run, router, test, truth, rng)
    finally:
        router.close()


RUNNERS = {
    "read_ood": lambda run: run_read(run, {}),
    "read_pq": lambda run: run_read(run, cfg.PQ_STORE),
    "churn_wal": run_churn,
    "cluster_door": run_cluster,
}
