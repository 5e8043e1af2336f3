"""Command-line interface: build, fix, evaluate, and analyze indexes.

Usage (also via ``python -m repro.cli``)::

    python -m repro.cli datasets
    python -m repro.cli build --dataset laion-sim --index hnsw --out /tmp/g.npz
    python -m repro.cli fix --dataset laion-sim --out /tmp/fixed.npz
    python -m repro.cli evaluate --dataset laion-sim --index-file /tmp/fixed.npz
    python -m repro.cli churn --dataset laion-sim --mutation-fraction 0.1
    python -m repro.cli churn --dataset laion-sim --wal-dir /tmp/wal
    python -m repro.cli cluster --n-shards 4 --frontdoor --chaos
    python -m repro.cli recover /tmp/wal
    python -m repro.cli analyze --dataset laion-sim
    python -m repro.cli stats --dataset laion-sim --format both

Every command accepts ``--scale`` to shrink the synthetic corpora,
``--seed`` for reproducibility, and ``--telemetry`` to collect metrics
(see docs/observability.md) and dump a Prometheus-text exposition at the
end of the run.  ``stats`` serves a sample workload with telemetry forced
on and emits the full metric surface (Prometheus text and/or JSON).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.config import StoreConfig

#: Base-graph geometry of every graph the CLI builds: the bare HNSW of
#: build/fix/evaluate/analyze/explain and the stores of churn/stats/cluster.
_GEOMETRY = dict(M=12, ef_construction=60)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="laion-sim",
                        help="registry dataset name (see `datasets`)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="corpus scale multiplier")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10,
                        help="neighbors per query")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect metrics during the run and print the "
                             "Prometheus text exposition at the end")


def _add_compressed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--compressed", action="store_true",
                        help="serve through the PQ-resident compressed hot "
                             "path (ADC traversal + exact re-rank)")
    parser.add_argument("--pq-m", type=int, default=None,
                        help="PQ subspace count (default: largest of "
                             "8/6/4/3/2/1 dividing dim)")
    parser.add_argument("--pq-ks", type=int, default=StoreConfig.pq_ks,
                        help="PQ centroids per subspace (<= 256)")
    parser.add_argument("--rerank", type=int, default=StoreConfig.rerank,
                        help="exact re-rank shortlist size (full-precision "
                             "NDC budget per query)")
    parser.add_argument("--memmap-dir",
                        help="spill base vectors to <dir>/vectors.vecs and "
                             "serve them via np.memmap (disk-resident tier)")


def _store_kwargs(args) -> dict:
    """Store settings shared by churn, stats and cluster (which hands them
    to the router): the CLI's build geometry plus the compressed flag
    group."""
    kwargs = dict(_GEOMETRY, seed=args.seed)
    if args.compressed:
        kwargs.update(compressed=True, pq_m=args.pq_m, pq_ks=args.pq_ks,
                      rerank=args.rerank)
    return kwargs


def _memmap_kwargs(args) -> dict:
    """Where a single-process store spills its raw vectors."""
    import pathlib
    if getattr(args, "memmap_dir", None):
        return {"memmap_path": pathlib.Path(args.memmap_dir) / "vectors.vecs"}
    return {}


def _print_compressed_stats(store) -> None:
    stats = store.stats()
    comp = stats.get("compressed")
    if comp:
        print(f"  PQ: m={comp['pq_m']} ks={comp['pq_ks']} "
              f"rerank={comp['rerank']} ({comp['code_bytes']} code bytes); "
              f"{comp['adc_scored']} ADC scorings, "
              f"{comp['rerank_ndc']} exact re-rank NDC, "
              f"{comp['pagein_seconds'] * 1e3:.1f}ms page-in")
    mm = stats.get("memmap")
    if mm:
        print(f"  memmap tier: {mm['path']} ({mm['vector_bytes']} bytes)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NGFix/RFix ANNS reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registry datasets with statistics")

    p_build = sub.add_parser("build", help="build a baseline index")
    _add_common(p_build)
    p_build.add_argument("--index", default="hnsw",
                         choices=["hnsw", "nsg", "roargraph", "vamana",
                                  "robust-vamana", "tau-mng"])
    p_build.add_argument("--out", help="save the built index to this .npz")

    p_fix = sub.add_parser("fix", help="build HNSW and run NGFix* on history")
    _add_common(p_fix)
    p_fix.add_argument("--preprocess", default="approx",
                       choices=["approx", "exact"])
    p_fix.add_argument("--max-extra-degree", type=int, default=12)
    p_fix.add_argument("--out", help="save the fixed index to this .npz")

    p_eval = sub.add_parser("evaluate", help="sweep ef and print the curve")
    _add_common(p_eval)
    p_eval.add_argument("--index-file", help="load a saved .npz index; "
                        "otherwise a fresh HNSW-NGFix* is built")
    p_eval.add_argument("--efs", type=int, nargs="*",
                        default=[10, 20, 40, 80, 160])
    p_eval.add_argument("--batch-size", type=int, default=1,
                        help="queries advanced together through the batch "
                             "engine; 1 = sequential per-query loop "
                             "(identical results either way)")

    p_churn = sub.add_parser(
        "churn", help="serve queries while mutating (epoch serving layer)")
    _add_common(p_churn)
    p_churn.add_argument("--ef", type=int, default=40)
    p_churn.add_argument("--batch-size", type=int, default=32)
    p_churn.add_argument("--mutation-fraction", type=float, default=0.1,
                         help="share of operations that are mutations "
                              "(0.1 = 90%% search / 10%% mutation)")
    p_churn.add_argument("--observe-every", type=int, default=0,
                         help="feed every Nth batch's first query to online "
                              "NGFix/RFix repair (0 = off)")
    p_churn.add_argument("--merge-every", type=int,
                         default=StoreConfig.merge_every,
                         help="overlay ops per background epoch merge")
    p_churn.add_argument("--wal-dir",
                         help="journal mutations to a write-ahead log in this "
                              "directory (must be fresh; restart with "
                              "'repro recover')")
    p_churn.add_argument("--sync-every", type=int,
                         default=StoreConfig.sync_every,
                         help="fsync the WAL every N records (1 = every "
                              "record, 0 = never; requires --wal-dir)")
    p_churn.add_argument("--storm", action="store_true",
                         help="run the bursty delete-storm protocol "
                              "(tail-recall stressor) instead of "
                              "steady-state churn")
    p_churn.add_argument("--storm-every", type=int, default=12,
                         help="query batches between delete storms")
    p_churn.add_argument("--storm-size", type=int, default=24,
                         help="ids deleted per storm burst")
    p_churn.add_argument("--rounds", type=int, default=3,
                         help="passes over the query set in storm mode")
    p_churn.add_argument("--json", action="store_true",
                         help="emit the report (incl. recall percentiles) "
                              "as JSON")
    _add_compressed(p_churn)

    p_rec = sub.add_parser(
        "recover", help="rebuild a store from its WAL directory and report")
    p_rec.add_argument("wal_dir", help="durability directory (snapshots + WAL)")
    p_rec.add_argument("--no-observes", action="store_true",
                       help="skip replaying observe (online repair) records")
    p_rec.add_argument("--json", action="store_true",
                       help="emit the RecoveryReport as JSON")

    p_an = sub.add_parser("analyze", help="hardness diagnostics for a dataset")
    _add_common(p_an)

    p_stats = sub.add_parser(
        "stats", help="serve a sample workload with telemetry and dump "
                      "the metric surface")
    _add_common(p_stats)
    p_stats.add_argument("--ef", type=int, default=40)
    p_stats.add_argument("--batch-size", type=int, default=32)
    p_stats.add_argument("--format", default="both",
                         choices=["prom", "json", "both"],
                         help="Prometheus text, JSON snapshot, or both")
    p_stats.add_argument("--traces", type=int, default=0,
                         help="also dump the N most recent per-query traces "
                              "as JSON (0 = off)")
    _add_compressed(p_stats)

    p_cluster = sub.add_parser(
        "cluster", help="serve a dataset through the sharded scatter-gather "
                        "router (forked shard workers + coalescing front "
                        "door)")
    _add_common(p_cluster)
    p_cluster.add_argument("--n-shards", type=int, default=4,
                           help="hash partitions (one worker process each)")
    p_cluster.add_argument("--n-replicas", type=int, default=1,
                           help="replicas per partition (read scaling + "
                                "failover)")
    p_cluster.add_argument("--ef", type=int, default=40,
                           help="per-shard search list size")
    p_cluster.add_argument("--batch-size", type=int, default=64)
    p_cluster.add_argument("--deadline-ms", type=float, default=None,
                           help="per-call latency budget; shards get "
                                "budget*(1-merge_reserve) each")
    p_cluster.add_argument("--base-dir",
                           help="durability root (per-replica WAL dirs "
                                "underneath); default: temp dir")
    p_cluster.add_argument("--frontdoor", action="store_true",
                           help="drive the workload through the asyncio "
                                "coalescing front door instead of direct "
                                "batched calls")
    p_cluster.add_argument("--window-ms", type=float, default=2.0,
                           help="front-door coalescing window")
    p_cluster.add_argument("--max-queue", type=int, default=1024,
                           help="front-door admission bound (queued + "
                                "in-flight); excess arrivals are shed with "
                                "a typed Overloaded rejection")
    p_cluster.add_argument("--no-hedge", action="store_true",
                           help="disable hedged reads (strictly sequential "
                                "replica failover)")
    p_cluster.add_argument("--hedge-ms", type=float, default=None,
                           help="fixed hedge delay override; default: "
                                "per-replica EWMA p95")
    p_cluster.add_argument("--max-pending", type=int, default=1024,
                           help="per-replica catch-up buffer bound; overflow "
                                "forces a peer resync at respawn")
    p_cluster.add_argument("--chaos", action="store_true",
                           help="kill shard 0 mid-run via repro.faults, then "
                                "respawn it through WAL recovery")
    p_cluster.add_argument("--gray-chaos", action="store_true",
                           help="delay replica (0,0)'s replies mid-run (gray "
                                "failure) and report hedging + breaker "
                                "re-admission instead of a respawn")
    _add_compressed(p_cluster)

    p_ex = sub.add_parser("explain", help="diagnose one test query in depth")
    _add_common(p_ex)
    p_ex.add_argument("--query-index", type=int, default=0,
                      help="which test query to explain")
    p_ex.add_argument("--fixed", action="store_true",
                      help="diagnose against the NGFix*-fixed graph instead "
                           "of plain HNSW")
    return parser


def _load_dataset(args):
    from repro import load_dataset
    return load_dataset(args.dataset, seed=args.seed, scale=args.scale)


def _build_index(args, ds):
    from repro import HNSW, NSG, RoarGraph, TauMNG
    from repro.graphs.vamana import RobustVamana, Vamana
    if args.index == "hnsw":
        return HNSW(ds.base, ds.metric, **_GEOMETRY)
    if args.index == "nsg":
        return NSG(ds.base, ds.metric, R=24, L=60)
    if args.index == "roargraph":
        return RoarGraph(ds.base, ds.metric, ds.train_queries, M=24,
                         n_query_neighbors=32)
    if args.index == "vamana":
        return Vamana(ds.base, ds.metric, R=24, L=60, seed=args.seed)
    if args.index == "robust-vamana":
        return RobustVamana(ds.base, ds.metric, ds.train_queries, R=24, L=60,
                            seed=args.seed)
    return TauMNG(ds.base, ds.metric, R=24, L=60, tau=0.01)


def _cmd_datasets(args) -> int:
    from repro import dataset_statistics
    from repro.evalx import format_table
    rows = [(s.name, s.n_base, s.n_train, s.n_test, s.dim, s.metric,
             s.modality) for s in dataset_statistics(scale=0.25)]
    print(format_table(
        ["name", "base", "train", "test", "dim", "metric", "modality"],
        rows, title="registry datasets (shown at scale=0.25)"))
    return 0


def _cmd_build(args) -> int:
    from repro.io import save_index
    ds = _load_dataset(args)
    index = _build_index(args, ds)
    stats = index.stats()
    print(f"built {args.index} over {ds.n} vectors: "
          f"{stats['n_base_edges']} edges, "
          f"avg degree {stats['avg_out_degree']:.1f}")
    if args.out:
        path = save_index(index, args.out)
        print(f"saved to {path}")
    return 0


def _cmd_fix(args) -> int:
    from repro import HNSW, FixConfig, NGFixer
    from repro.io import save_index
    ds = _load_dataset(args)
    base = HNSW(ds.base, ds.metric, **_GEOMETRY)
    fixer = NGFixer(base, FixConfig(
        k=args.k, preprocess=args.preprocess,
        max_extra_degree=args.max_extra_degree))
    fixer.fit(ds.train_queries)
    stats = fixer.stats()
    print(f"fixed {stats['queries_fixed']} historical queries: "
          f"+{stats['n_extra_edges']} extra edges in "
          f"{stats['preprocess_seconds'] + stats['fix_seconds']:.2f}s")
    if args.out:
        path = save_index(fixer, args.out)
        print(f"saved to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro import HNSW, FixConfig, NGFixer, compute_ground_truth, sweep
    from repro.evalx import format_table
    from repro.io import load_index
    ds = _load_dataset(args)
    if args.index_file:
        index = load_index(args.index_file)
        label = args.index_file
    else:
        base = HNSW(ds.base, ds.metric, **_GEOMETRY)
        index = NGFixer(base, FixConfig(k=args.k, preprocess="approx"))
        index.fit(ds.train_queries)
        label = "HNSW-NGFix* (freshly built)"
    gt = compute_ground_truth(ds.base, ds.test_queries, args.k, ds.metric)
    points = sweep(index, ds.test_queries, gt, args.k,
                   [max(ef, args.k) for ef in args.efs],
                   batch_size=args.batch_size)
    rows = [(p.ef, round(p.recall, 4), round(p.rderr, 6), round(p.qps, 1),
             round(p.ndc_per_query, 1)) for p in points]
    print(format_table(["ef", "recall", "rderr", "QPS", "NDC/query"], rows,
                       title=f"{label} on {ds.name} (recall@{args.k})"))
    return 0


def _cmd_churn(args) -> int:
    import dataclasses as _dc
    import json as _json

    from repro import VectorStore, compute_ground_truth
    from repro.evalx import (delete_storm_workload, evaluate_index,
                             format_percentiles, interleaved_workload)
    ds = _load_dataset(args)
    store = VectorStore(dim=ds.base.shape[1], metric=ds.metric,
                        merge_every=args.merge_every,
                        wal_dir=args.wal_dir, sync_every=args.sync_every,
                        **_store_kwargs(args), **_memmap_kwargs(args))
    store.add(ds.base)
    store.build()
    store.fit_history(ds.train_queries)
    gt = compute_ground_truth(ds.base, ds.test_queries, args.k, ds.metric)
    # The store's index protocol is batched (search() returns payload
    # triples, not SearchResults), so the evaluation runs batch-only.
    batch_size = max(2, args.batch_size)
    baseline = evaluate_index(store, ds.test_queries, gt, args.k,
                              max(args.ef, args.k), batch_size=batch_size)
    if args.storm:
        report = delete_storm_workload(
            store, ds.test_queries, gt, args.k, max(args.ef, args.k),
            batch_size=batch_size, rounds=args.rounds,
            storm_every=args.storm_every, storm_size=args.storm_size,
            observe_every=max(args.observe_every, 1), seed=args.seed)
    else:
        report = interleaved_workload(
            store, ds.test_queries, gt, args.k, max(args.ef, args.k),
            batch_size=batch_size,
            mutation_fraction=args.mutation_fraction,
            observe_every=args.observe_every, seed=args.seed)
    if args.json:
        out = {
            "dataset": ds.name,
            "mode": "storm" if args.storm else "steady",
            "baseline": {"qps": baseline.qps, "recall": baseline.recall},
            "report": _dc.asdict(report),
        }
        print(_json.dumps(out, indent=2))
        store.close()
        return 0
    pct = {"p50": report.recall_p50, "p95": report.recall_p95,
           "p99": report.recall_p99}
    print(f"{ds.name}: read-only {baseline.qps:.1f} QPS "
          f"@ recall {baseline.recall:.4f}")
    if args.storm:
        print(f"delete storm ({report.n_storms} storms x "
              f"{args.storm_size} deletes): {report.qps:.1f} QPS "
              f"@ recall {report.recall:.4f} "
              f"({report.qps / baseline.qps:.0%} of read-only)")
        print(f"  {report.n_deletes} deletes, {report.n_reinserts} "
              f"re-inserts, {report.n_observed} observed, "
              f"{report.merges} epoch merges, {report.repairs} repairs "
              f"({report.maintenance_seconds * 1e3:.1f}ms maintenance)")
    else:
        print(f"churn ({args.mutation_fraction:.0%} mutations): "
              f"{report.qps:.1f} QPS @ recall {report.recall:.4f} "
              f"({report.qps / baseline.qps:.0%} of read-only)")
        print(f"  {report.n_inserts} inserts, {report.n_deletes} deletes, "
              f"{report.n_observed} observed, {report.merges} epoch merges, "
              f"{report.repairs} online repairs")
    print(f"  {format_percentiles(pct)}")
    _print_compressed_stats(store)
    if store.wal is not None:
        wal_stats = store.wal.stats()
        print(f"  WAL: {wal_stats['records']} records, "
              f"{wal_stats['fsyncs']} fsyncs, seq {wal_stats['seq']} "
              f"(recover with: repro recover {args.wal_dir})")
    store.close()
    return 0


def _cmd_recover(args) -> int:
    import json as _json

    from repro.durability import RecoveryError, recover
    try:
        store, report = recover(args.wal_dir,
                                replay_observes=not args.no_observes)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    store.close()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        snap = (f"snapshot {report.snapshot_id} @ seq {report.snapshot_wal_seq}"
                if report.snapshot_id is not None else "no snapshot (WAL only)")
        print(f"recovered {report.n_vectors} vectors "
              f"({report.n_deleted} tombstoned) from {report.wal_dir}")
        print(f"  base: {snap}; replayed {report.replayed} "
              f"to terminal seq {report.terminal_seq}")
        if report.truncated_bytes:
            print(f"  torn tail: truncated {report.truncated_bytes} bytes")
        print(f"  elapsed {report.elapsed_seconds:.3f}s; "
              f"consistent: {report.consistent}")
        for err in report.errors:
            print(f"  INCONSISTENCY: {err}", file=sys.stderr)
    return 0 if report.consistent else 1


def _cmd_stats(args) -> int:
    """Serve a representative workload with telemetry on, dump the metrics.

    Exercises every instrumented layer so the exposition demonstrates the
    full catalog: batched + sequential epoch-pinned serving, hash-cache hits
    and misses, online repair on the background worker (liveness heartbeat),
    and an epoch merge.
    """
    from repro import VectorStore, obs
    from repro.core.hash_cache import CachedSearcher
    from repro.graphs.search import pad_results
    obs.enable()
    ds = _load_dataset(args)
    store = VectorStore(dim=ds.base.shape[1], metric=ds.metric,
                        scheduler_mode="thread",
                        **_store_kwargs(args), **_memmap_kwargs(args))
    store.add(ds.base)
    store.build()
    try:
        k, ef = args.k, max(args.ef, args.k)
        searcher = store.searcher
        cached = CachedSearcher(searcher)
        # Warm the cache on half the test queries, then serve the full set
        # batched: half hit, half miss — a visible hit ratio.
        warm = ds.test_queries[: len(ds.test_queries) // 2]
        ids, dists = pad_results(
            searcher.search_batch(warm, k, ef, batch_size=args.batch_size), k)
        cached.warm(warm, ids, dists)
        cached.search_batch(ds.test_queries, k, ef,
                            batch_size=args.batch_size)
        for query in ds.test_queries[:4]:
            store.search(query, k=k, ef=ef)   # sequential pinned path
            store.observe(query)              # background NGFix/RFix repair
        store.flush()
        store.scheduler.merge_now()
        # Snapshot while the worker is still running so liveness gauges
        # reflect the serving state, not the post-shutdown one.
        prom = obs.OBS.prometheus_text()
        blob = obs.OBS.to_json(indent=2)
        traces = obs.TRACES.to_json(n=args.traces, indent=2)
    finally:
        store.scheduler.stop()
    if args.format in ("prom", "both"):
        print(prom)
    if args.format in ("json", "both"):
        print(blob)
    if args.traces:
        print(traces)
    return 0


def _cmd_cluster(args) -> int:
    """Serve the dataset through a sharded router and report the outcome."""
    from repro import compute_ground_truth
    from repro.cluster import WORKER_OP_POINT, ClusterRouter
    from repro.evalx import evaluate_index
    ds = _load_dataset(args)
    gt = compute_ground_truth(ds.base, ds.test_queries, args.k, ds.metric)
    router = ClusterRouter(
        dim=ds.base.shape[1], metric=ds.metric, n_shards=args.n_shards,
        n_replicas=args.n_replicas, base_dir=args.base_dir,
        hedge=not args.no_hedge, hedge_ms=args.hedge_ms,
        max_pending=args.max_pending, **_store_kwargs(args))
    try:
        router.load(ds.base, train_queries=ds.train_queries)
        k, ef = args.k, max(args.ef, args.k)
        point = evaluate_index(router, ds.test_queries, gt, k, ef,
                               batch_size=max(2, args.batch_size))
        print(f"{ds.name}: {args.n_shards} shards x {args.n_replicas} "
              f"replicas — {point.qps:.1f} QPS @ recall {point.recall:.4f} "
              f"(ef={ef}, NDC/query {point.ndc_per_query:.1f})")
        if args.frontdoor:
            import asyncio

            from repro.cluster import FrontDoor
            door = FrontDoor(router, window_ms=args.window_ms,
                             max_batch=args.batch_size, k=k, ef=ef,
                             deadline_ms=args.deadline_ms,
                             max_queue=args.max_queue)

            async def serve():
                await asyncio.gather(
                    *(door.search(q) for q in ds.test_queries),
                    return_exceptions=True)
                await door.drain()
            asyncio.run(serve())
            fd = door.stats()
            print(f"  front door: {fd['dispatched']} queries in "
                  f"{fd['blocks']} blocks (mean batch "
                  f"{fd['mean_batch']:.1f}, window {args.window_ms}ms, "
                  f"{fd['shed']} shed, peak depth {fd['max_depth_seen']}/"
                  f"{fd['max_queue']})")
        if args.chaos:
            handle = router.handles[0][0]
            handle.rpc({"op": "arm_faults", "rules": [
                {"point": WORKER_OP_POINT, "action": "kill", "nth": 2}]})
            # Single searches: each one is an op on every shard, so the
            # armed kill fires on the victim's second op — mid-run, with
            # the remaining answers served degraded by the survivors.
            results = [router.search(q, k, ef)
                       for q in ds.test_queries[:32]]
            degraded = sum(r.degraded for r in results)
            report = router.respawn(0, 0)
            print(f"  chaos: killed shard 0 mid-run — {degraded}/32 "
                  f"degraded answers, recovery consistent: "
                  f"{report.get('consistent') if report else 'n/a'}, "
                  f"{router.live_replicas()} replicas live")
        if args.gray_chaos:
            import time as _time

            from repro.cluster import WORKER_PRE_REPLY_POINT
            victim = router.handles[0][0]
            victim.rpc({"op": "arm_faults", "rules": [
                {"point": WORKER_PRE_REPLY_POINT, "action": "delay",
                 "every": True, "delay_s": 0.05}]})
            for q in ds.test_queries[:48]:
                router.search(q, k, ef)
            tripped = victim.breaker.state
            victim.rpc({"op": "disarm_faults"})
            _time.sleep(0.6)  # let the breaker's retry backoff elapse
            for q in ds.test_queries[:32]:
                router.search(q, k, ef)
                _time.sleep(0.005)
            rs = router.router_stats()
            print(f"  gray chaos: replica 0.0 delayed 50ms — breaker "
                  f"{tripped} under fault, {rs['hedges']} hedges "
                  f"({rs['hedge_wins']} won), re-admitted: "
                  f"{victim.breaker.state == 'closed'} "
                  f"({rs['breaker_readmits']} readmits, "
                  f"{rs['respawns']} respawns)")
        merged = router.stats()["merged"]
        stats = router.router_stats()
        print(f"  router: {stats['searches']} searches, "
              f"{stats['retries']} replica retries, "
              f"{stats['degraded']} degraded, "
              f"{stats['hedges']} hedges, "
              f"{stats['breaker_trips']} breaker trips, "
              f"{stats['respawns']} respawns")
        comp = merged.get("compressed")
        if isinstance(comp, dict):
            print(f"  merged shards: {comp.get('adc_scored', 0)} ADC "
                  f"scorings, {comp.get('rerank_ndc', 0)} exact re-rank "
                  f"NDC (pq_sig shared: {merged.get('pq_sig')})")
    finally:
        router.close()
    return 0


def _cmd_analyze(args) -> int:
    from repro import HNSW, compute_ground_truth
    from repro.core.analysis import phase_reach_stats
    from repro.core.visualize import render_qng
    ds = _load_dataset(args)
    index = HNSW(ds.base, ds.metric, **_GEOMETRY)
    gt = compute_ground_truth(ds.base, ds.test_queries, 3 * args.k, ds.metric)
    stats = phase_reach_stats(index, ds.test_queries, gt, k=args.k,
                              ef=2 * args.k)
    print(f"{ds.name}: phase-1 success "
          f"{stats['reached_vicinity_fraction']:.3f}, "
          f"mean recall@{args.k} {stats['mean_recall']:.3f}")
    for bucket, fraction in stats["histogram"].items():
        print(f"  recall {bucket}: {fraction:.2f}")
    hard = int(np.argmin(stats["recalls"]))
    print(f"\nhardest query #{hard} "
          f"(recall {stats['recalls'][hard]:.2f}) — QNG layout:")
    print(render_qng(index, gt, hard, args.k))
    return 0


def _cmd_explain(args) -> int:
    from repro import HNSW, FixConfig, NGFixer, explain_query
    ds = _load_dataset(args)
    index = HNSW(ds.base, ds.metric, **_GEOMETRY)
    if args.fixed:
        fixer = NGFixer(index, FixConfig(k=args.k, preprocess="approx"))
        fixer.fit(ds.train_queries)
        index = fixer
    if not 0 <= args.query_index < len(ds.test_queries):
        raise SystemExit(f"--query-index out of range "
                         f"[0, {len(ds.test_queries)})")
    report = explain_query(index, ds.test_queries[args.query_index], k=args.k)
    print(f"query #{args.query_index} on {ds.name} "
          f"({'fixed' if args.fixed else 'plain'} graph)")
    print(f"  verdict         : {report['verdict']}")
    print(f"  recommended ef  : {report['recommended_ef']}")
    qng = report["qng"]
    print(f"  QNG             : {qng['n_edges']} edges, "
          f"{qng['avg_reachable_fraction']:.2f} reachable fraction, "
          f"{qng['isolated_points']} isolated")
    eh = report["escape_hardness"]
    print(f"  escape hardness : {eh['unreachable_pairs']} unreachable pairs, "
          f"score {eh['hardness_score']:.2f}, max finite {eh['max_finite_eh']:.0f}")
    p1 = report["phase1"]
    print(f"  phase 1         : reaches vicinity = {p1['reaches_vicinity']} "
          f"(anchor {p1['anchor_distance']:.4f} vs k-th NN "
          f"{p1['kth_nn_distance']:.4f})")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "build": _cmd_build,
    "fix": _cmd_fix,
    "evaluate": _cmd_evaluate,
    "churn": _cmd_churn,
    "cluster": _cmd_cluster,
    "recover": _cmd_recover,
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
    "explain": _cmd_explain,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    telemetry = getattr(args, "telemetry", False)
    if telemetry:
        from repro import obs
        obs.enable()
    code = _COMMANDS[args.command](args)
    if telemetry and args.command != "stats":
        from repro import obs
        print("\n# telemetry (Prometheus text exposition)")
        print(obs.OBS.prometheus_text(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
