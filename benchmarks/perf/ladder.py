"""Layer ladder of the traced run: one call per rung, each under a span.

For a sample of the run's own inputs the harness calls each layer's public
entry point in turn -- ``VectorStore.search`` -> ``ServingSearcher.search``
-> ``EpochManager.pin`` -> ``greedy_search`` -> the distance kernel, and
``FrontDoor.search`` -> ``ClusterRouter.search_batch`` -> ``ShardHandle.rpc``
-> ``protocol.encode``/``decode`` -> ``merge_topk_batch`` -- so a layer's
self time is the paired difference between adjacent rungs.  Where the
harness itself passes the scorer into a search function it passes a
:class:`KernelProbe`, which records each kernel call as a child span; the
span arithmetic in :mod:`perf.trace` then gives the traversal's own time.
Worker processes are seen only through the router-side RPC span.
"""

from __future__ import annotations

import asyncio
import struct
import time

import numpy as np

from perf import config as cfg
from perf.measure import median, tail_value

from repro.cluster import (BrownoutController, FrontDoor, merge_topk_batch,
                           protocol)
from repro.durability.wal import WriteAheadLog
from repro.graphs.search import BatchSearchEngine, VisitedTable, greedy_search
from repro.quantization.searcher import pq_greedy_search

pc = time.perf_counter


def make_door(router) -> FrontDoor:
    """A default FrontDoor, but with brown-out pinned off (README, "Pinned
    ``cluster_door`` settings"): far from overload a stall of the host inflates
    three dispatch waits in a row and the door answers ``degraded``."""
    return FrontDoor(router, k=cfg.K, ef=cfg.EF_SHARD, **cfg.FRONTDOOR,
                     brownout=BrownoutController(enter_score=float("inf")))


class KernelProbe:
    """Stands in for a scorer the harness hands to a search function.

    Forwards everything to ``inner``; calls to the named scoring methods are
    timed, recorded as spans under the currently open span, and their row
    counts summed, so kernel cost is measured on the shapes the search
    really produced.
    """

    def __init__(self, inner, tracer, span_name: str, methods: tuple[str, ...]):
        self._inner = inner
        self.scored = 0
        self.seconds = 0.0
        for method in methods:
            setattr(self, method, self._timed(getattr(inner, method), tracer,
                                              span_name))

    def _timed(self, fn, tracer, span_name):
        def call(rows, *args):
            t0 = pc()
            out = fn(rows, *args)
            t1 = pc()
            tracer.add(span_name, t0, t1)
            self.scored += len(rows)
            self.seconds += t1 - t0
            return out
        return call

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ns_per_row(self) -> float:
        return self.seconds / self.scored * 1e9 if self.scored else 0.0


def paired(tracer, outer: str, *inner: str) -> float:
    """Median over operations of ``outer``'s duration minus the ``inner``
    rungs' (one span per operation each, paired by recording order; a rung
    the path does not have recorded nothing and subtracts nothing)."""
    diff = np.asarray(tracer.durations(outer))
    for name in inner:
        durations = tracer.durations(name)
        if durations:
            diff = diff - np.asarray(durations)
    return median(diff)


def search_ladder(run, store, sample, ef: int) -> None:
    """Single-query rungs of an in-process store (exact or compressed)."""
    tracer, layers = run.tracer, run.layers
    searcher, manager, dc, adc = store.searcher, store.epochs, store.dc, store.adc
    visited = VisitedTable(dc.size)
    if adc is None:
        probe = KernelProbe(dc, tracer, "distances.kernel", ("to_query",))
    else:
        probe = KernelProbe(adc.pq, tracer, "quantization.adc_kernel",
                            ("adc_distances",))

    def traverse(scorer, view, entry, prepared):
        if adc is None:
            return greedy_search(scorer, view, entry, prepared, k=cfg.K, ef=ef,
                                 visited=visited, excluded=view.excluded(),
                                 prepared=True)
        table = adc.begin_query(prepared)
        return pq_greedy_search(scorer, adc.codes, view, entry, table,
                                k=cfg.K, ef=ef, visited=visited,
                                excluded=view.excluded())

    frontier = []
    rerank_rows = rerank_seconds = 0
    bare = np.empty(len(sample))
    for i, query in enumerate(sample):
        # Untraced and traced call back to back, so both see the same
        # cache and clock state: their ratio is the tracing overhead.
        t = pc()
        store.search(query, k=cfg.K, ef=ef)
        bare[i] = pc() - t
        with tracer.span("store.search", i):
            store.search(query, k=cfg.K, ef=ef)
        with tracer.span("serving.search", i):
            result = searcher.search(query, k=cfg.K, ef=ef)
        frontier.append(result.frontier_peak)
        with tracer.span("serving.pin", i):
            manager.pin().release()
        prepared = dc.prepare_query(query)
        with manager.pin() as pin:
            entry = [pin.epoch.entry]
            with tracer.span("graphs.search.scalar", i):
                found = traverse(dc if adc is None else adc.pq, pin.view,
                                 entry, prepared)
            if adc is not None:
                shortlist = found[0][:searcher.rerank]
                with tracer.span("quantization.rerank", i) as index:
                    dc.to_query(shortlist, prepared)
                span = tracer.spans[index]
                rerank_seconds += span.end - span.start
                rerank_rows += len(shortlist)
            # Same traversal again with the probe as scorer: the kernel calls
            # become child spans, the traversal's self time is the rest.
            with tracer.span("graphs.search.scalar+probe", i):
                traverse(probe, pin.view, entry, prepared)

    layers["store.search_self_us"] = 1e6 * paired(
        tracer, "store.search", "serving.search")
    layers["serving.search_self_us"] = 1e6 * paired(
        tracer, "serving.search", "serving.pin", "graphs.search.scalar",
        "quantization.rerank")
    layers["serving.pin_us"] = 1e6 * median(tracer.durations("serving.pin"))
    layers["graphs.search.scalar_us"] = 1e6 * median(
        tracer.durations("graphs.search.scalar"))
    layers["graphs.search.frontier_peak_mean"] = float(np.mean(frontier))
    if adc is not None:
        layers["distances.kernel_ns_per_dist"] = (
            rerank_seconds / rerank_rows * 1e9 if rerank_rows else 0.0)
    layers["trace.overhead_ratio"] = (
        median(tracer.durations("store.search")) / median(bare))
    run.samples["ladder"] = f"n={len(sample)} queries"


def block_ladder(run, store, queries, ef: int) -> None:
    """Block-of-64 rungs: ``ServingSearcher.search_batch`` over a harness-built
    ``BatchSearchEngine`` on a pinned view, with the kernel probed."""
    tracer, layers = run.tracer, run.layers
    searcher, manager, dc, adc = store.searcher, store.epochs, store.dc, store.adc
    blocks = [queries[i * cfg.BATCH:(i + 1) * cfg.BATCH]
              for i in range(run.sizes.ladder_blocks)]
    if adc is None:
        probe = KernelProbe(dc, tracer, "distances.kernel",
                            ("block_to_queries", "to_query"))
    else:
        probe = KernelProbe(adc, tracer, "quantization.adc_kernel",
                            ("block_to_queries", "to_query"))

    def engine_for(scorer, pin):
        entry = [pin.epoch.entry]
        return BatchSearchEngine(
            scorer, pin.view, lambda q: entry, excluded_fn=pin.view.excluded,
            batch_size=cfg.BATCH, graph_fn=lambda: pin.view,
            beam_width=searcher.beam_width,
            entry_points_block_fn=lambda qmat: entry)

    def run_block(engine, block):
        if adc is None:
            return engine.search_batch(block, cfg.K, ef)
        return engine.search_batch(dc.prepare_queries(block), cfg.K, ef,
                                   collect_visited=True, prepared=True)

    with manager.pin() as pin:
        plain = engine_for(dc if adc is None else adc, pin)
        probed = engine_for(probe, pin)
        run_block(plain, blocks[0])  # sizes the engine's visited table
        for b, block in enumerate(blocks):
            with tracer.span("serving.search_batch", b):
                searcher.search_batch(block, cfg.K, ef, batch_size=cfg.BATCH)
            with tracer.span("graphs.search.block", b):
                run_block(plain, block)
            with tracer.span("graphs.search.block+probe", b):
                run_block(probed, block)

    layers["graphs.search.block_ms"] = 1e3 * median(
        tracer.durations("graphs.search.block"))
    layers["serving.batch_self_us_per_query"] = 1e6 / cfg.BATCH * paired(
        tracer, "serving.search_batch", "graphs.search.block")
    if adc is None:
        layers["distances.kernel_ns_per_dist"] = probe.ns_per_row()
    else:
        layers["quantization.adc_ns_per_code"] = probe.ns_per_row()


def wal_ladder(run, vectors) -> None:
    """The WAL rung of an acknowledged insert, on a scratch log with the
    store's own flush policy."""
    wal = WriteAheadLog(run.tmp / "wal-ladder",
                        sync_every=cfg.WAL_STORE["sync_every"])
    try:
        for i, vector in enumerate(vectors):
            with run.tracer.span("durability.wal_append", i):
                wal.log_insert(i, vector[None, :], None)
    finally:
        wal.close()
    run.layers["durability.wal_append_us"] = 1e6 * median(
        run.tracer.durations("durability.wal_append"))


def _split_frame(frame: bytes) -> tuple[bytes, bytes]:
    """``(header, payload)`` of one protocol frame."""
    (header_len,) = struct.unpack(">I", frame[:4])
    return frame[4:4 + header_len], frame[4 + header_len:]


async def _cluster_rungs(run, router, sample) -> tuple[np.ndarray, list[int]]:
    """One lone query at a time down the cluster's rungs; returns the
    untraced ``FrontDoor.search`` seconds and the frame bytes per query."""
    tracer = run.tracer
    door = make_door(router)
    bare = np.empty(len(sample))
    frame_bytes = []
    try:
        for i, query in enumerate(sample):
            t = pc()
            await door.search(query)
            bare[i] = pc() - t
            with tracer.span("cluster.frontdoor.search", i):
                await door.search(query)
            # Nothing else runs on this loop, so the blocking calls below
            # delay no one.
            block = query[None, :]
            with tracer.span("cluster.router.search", i):
                router.search_batch(block, cfg.K, cfg.EF_SHARD, batch_size=1)
            request = {"op": "search", "q": block, "k": cfg.K,
                       "batch_size": 1, "ef": cfg.EF_SHARD}
            replies = []
            for replicas in router.handles:
                with tracer.span("cluster.router.rpc", i):
                    replies.append(replicas[0].rpc(request))
            # What one shard exchange costs in framing: both messages,
            # both ways.
            with tracer.span("cluster.protocol.encode", i):
                request_frame = protocol.encode(request)
                reply_frame = protocol.encode(replies[0])
            with tracer.span("cluster.protocol.decode", i):
                protocol.decode(*_split_frame(request_frame))
                protocol.decode(*_split_frame(reply_frame))
            frame_bytes.append(len(router.handles)
                               * (len(request_frame) + len(reply_frame)))
            with tracer.span("cluster.router.merge", i):
                merge_topk_batch(
                    [np.asarray(r["ids"], dtype=np.int64) for r in replies],
                    [np.asarray(r["dists"], dtype=np.float64) for r in replies],
                    cfg.K)
    finally:
        await door.drain()
    return bare, frame_bytes


def cluster_ladder(run, router, sample) -> None:
    """Lone-query rungs of the cluster, on the run's real messages."""
    tracer, layers = run.tracer, run.layers
    bare, frame_bytes = asyncio.run(_cluster_rungs(run, router, sample))

    rpc_ms = 1e3 * np.asarray(tracer.durations("cluster.router.rpc"))
    layers["cluster.router.rpc_ms_p50"] = median(rpc_ms)
    layers["cluster.router.rpc_ms_tail"] = tail_value(rpc_ms)[0]
    layers["cluster.protocol.encode_us"] = 1e6 * median(
        tracer.durations("cluster.protocol.encode"))
    layers["cluster.protocol.decode_us"] = 1e6 * median(
        tracer.durations("cluster.protocol.decode"))
    layers["cluster.protocol.bytes_per_query"] = float(np.mean(frame_bytes))
    layers["cluster.router.merge_us"] = 1e6 * median(
        tracer.durations("cluster.router.merge"))
    # The router scatters to all shards at once, so the slowest one sets
    # its time; the harness calls them one after the other.
    slowest = rpc_ms.reshape(len(sample), len(router.handles)).max(axis=1)
    layers["cluster.router.search_self_ms"] = median(
        1e3 * np.asarray(tracer.durations("cluster.router.search")) - slowest
        - 1e3 * np.asarray(tracer.durations("cluster.router.merge")))
    layers["cluster.worker.search_ms"] = (
        layers["cluster.router.rpc_ms_p50"]
        - (layers["cluster.protocol.encode_us"]
           + layers["cluster.protocol.decode_us"]) / 1e3)
    layers["cluster.frontdoor.wait_ms_p50"] = 1e3 * paired(
        tracer, "cluster.frontdoor.search", "cluster.router.search")
    layers["trace.overhead_ratio"] = (
        median(tracer.durations("cluster.frontdoor.search")) / median(bare))
    run.samples["ladder"] = f"n={len(sample)} queries"
