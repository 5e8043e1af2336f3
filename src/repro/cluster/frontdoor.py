"""Asyncio front door: coalesce concurrent single-query requests into blocks.

Interactive callers issue one query at a time, but the whole serving stack
below — :class:`~repro.graphs.search.BatchSearchEngine` inside every shard,
one RPC per partition in the router — amortizes per ``search_batch`` block.
The front door closes that gap: concurrent ``await frontdoor.search(q)``
calls are stacked into one query matrix, dispatched as a single router
``search_batch`` on a dedicated bounded executor, and fanned back to each
caller's future.

Coalescing only ever waits *behind work*.  An arrival that finds the door
idle — nothing queued, nothing in flight — is dispatched at once, so a lone
query pays no window.  While a block is in flight, arrivals queue behind it
and leave together when the last in-flight block resolves, or earlier when
``window_ms`` has passed since the first of them queued or ``max_batch`` of
them have: the window bounds the wait and ``max_batch`` the block size
while the door is busy, and neither costs anything when it is not.  At high
concurrency the batch kernel and the once-per-block scatter overhead are
shared by every rider, which is where the throughput multiple comes from
(``cluster.frontdoor.*`` in ``benchmarks/perf``).

The door is also the cluster's admission controller.  Load it cannot serve
is bounded, not buffered: once ``max_queue`` queries are waiting or
in flight, new arrivals are rejected with the typed
:class:`~repro.cluster.resilience.Overloaded` — back-pressure the caller
can retry against, instead of a queue whose wait time silently grows past
every deadline.  Under *sustained* pressure the door browns out before it
sheds everything: blocks dispatch at a reduced search effort (half the
door's ``ef``, never below ``k``) and their results are marked
``degraded``, trading recall for admission — recovering
hysteretically (:class:`~repro.cluster.resilience.BrownoutController`)
once the overload score stays low.  Queue depth, realized batch sizes,
sheds, and brownout state are exported as ``cluster_frontdoor_*`` metrics
so the window and bound can be tuned from telemetry.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.cluster.resilience import BrownoutController, Overloaded, \
    overload_score
from repro.obs import OBS

_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_COALESCED = OBS.histogram(
    "cluster_frontdoor_batch_size",
    "queries coalesced per dispatched block", buckets=_BATCH_BUCKETS)
_WAITS = OBS.histogram(
    "cluster_frontdoor_wait_seconds",
    "time a query waited in the coalescing window")
_SHED = OBS.counter(
    "cluster_frontdoor_shed",
    "queries rejected (Overloaded) because the admission bound was hit")
_BROWNOUT_BLOCKS = OBS.counter(
    "cluster_frontdoor_brownout_blocks",
    "blocks dispatched at reduced effort while browned out")


class _Pending:
    __slots__ = ("query", "future", "t_enqueue")

    def __init__(self, query: np.ndarray, future: asyncio.Future):
        self.query = query
        self.future = future
        self.t_enqueue = time.perf_counter()


class FrontDoor:
    """Async facade over a router (or store): windowed query coalescing.

    Parameters
    ----------
    searcher:
        Anything with ``search_batch(queries, k, ef, batch_size=...)``
        returning a list of :class:`~repro.graphs.search.SearchResult` —
        a :class:`~repro.cluster.router.ClusterRouter` or a single
        :class:`~repro.store.VectorStore`.
    window_ms:
        Longest a query queued behind an in-flight block waits before its
        own block is dispatched anyway.  An idle door dispatches at once.
    max_batch:
        Dispatch early once this many queries are queued.
    k, ef, deadline_ms:
        Defaults applied to queries that do not override them; per-call
        ``k`` must match within one block, so mixed-k calls dispatch in
        k-homogeneous groups.
    max_queue:
        Admission bound: queries *waiting plus in flight* may not exceed
        this; excess arrivals raise
        :class:`~repro.cluster.resilience.Overloaded`.
    executor_workers:
        Size of the door's own dispatch pool (replacing the loop's
        unbounded default executor); shut down by :meth:`drain`.
    brownout:
        A :class:`~repro.cluster.resilience.BrownoutController` override
        (mostly for tests); ``None`` builds the default hysteresis.
    """

    def __init__(self, searcher, window_ms: float = 2.0,
                 max_batch: int = 64, k: int = 10, ef: int | None = None,
                 deadline_ms: float | None = None, max_queue: int = 1024,
                 executor_workers: int = 4,
                 brownout: BrownoutController | None = None):
        self.searcher = searcher
        self.window_ms = window_ms
        self.max_batch = max_batch
        self.k = k
        self.ef = ef
        self.deadline_ms = deadline_ms
        self.max_queue = max(int(max_queue), 1)
        self.n_dispatched = 0
        self.n_blocks = 0
        self.n_shed = 0
        self.n_brownout_blocks = 0
        self.max_depth_seen = 0
        self._inflight = 0
        self._sheds_window = 0   # sheds since the last dispatch
        self._admits_window = 0  # admissions since the last dispatch
        self._brownout = brownout or BrownoutController()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(int(executor_workers), 1),
            thread_name_prefix="repro-frontdoor")
        self._outstanding: set[asyncio.Future] = set()
        self._queues: dict[int, list[_Pending]] = {}  # k -> waiting queries
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._lock = asyncio.Lock()
        OBS.gauge_fn("cluster_frontdoor_queue_depth",
                     lambda: sum(len(q) for q in self._queues.values()),
                     "queries waiting in the coalescing window")
        OBS.gauge_fn("cluster_frontdoor_brownout_active",
                     lambda: 1.0 if self._brownout.active else 0.0,
                     "1 while the front door serves at reduced effort")

    def _depth(self) -> int:
        """Admission-control depth: queued *and* in-flight queries."""
        return sum(len(q) for q in self._queues.values()) + self._inflight

    async def search(self, query: np.ndarray, k: int | None = None,
                     ef: int | None = None):
        """Await one query's merged result; rides a coalesced block.

        Raises :class:`~repro.cluster.resilience.Overloaded` when the
        door's queued + in-flight depth is at ``max_queue``.
        """
        if self._closed:
            raise RuntimeError("front door has been drained")
        k = self.k if k is None else int(k)
        loop = asyncio.get_running_loop()
        pending = _Pending(
            np.ascontiguousarray(np.asarray(query, dtype=np.float32)),
            loop.create_future())
        async with self._lock:
            depth = self._depth()
            if depth >= self.max_queue:
                self.n_shed += 1
                self._sheds_window += 1
                _SHED.inc()
                raise Overloaded(
                    f"front door at capacity ({depth}/{self.max_queue} "
                    "queued or in flight)")
            self._admits_window += 1
            self.max_depth_seen = max(self.max_depth_seen, depth + 1)
            queue = self._queues.setdefault(k, [])
            queue.append(pending)
            # Nothing in flight means nothing queued either (_resolve
            # flushes the queues when the last block lands), so there is no
            # one to coalesce with and waiting would be pure latency.
            if not self._inflight or len(queue) >= self.max_batch:
                self._dispatch(loop, k)
            elif k not in self._timers:
                self._timers[k] = loop.call_later(
                    self.window_ms / 1000.0, self._on_window, loop, k)
        return await pending.future

    def _on_window(self, loop: asyncio.AbstractEventLoop, k: int) -> None:
        self._dispatch(loop, k)

    def _overload_score(self, block: list[_Pending], now: float) -> float:
        """The overload score at one dispatch (0 healthy)."""
        oldest_wait = max(now - p.t_enqueue for p in block)
        window_s = max(self.window_ms / 1000.0, 1e-4)
        arrivals = self._admits_window + self._sheds_window
        shed_rate = self._sheds_window / arrivals if arrivals else 0.0
        score = overload_score(
            queue_fraction=self._depth() / self.max_queue,
            wait_ratio=oldest_wait / window_s,
            shed_rate=shed_rate)
        self._sheds_window = 0
        self._admits_window = 0
        return score

    def _brownout_ef(self, k: int) -> int | None:
        """Reduced-effort ef of a browned block: half the door's ``ef``,
        never below ``k``.  None when that is no less than what an
        unbrowned block runs (the door has no ``ef``, or halving hits
        ``k``): such a block is dispatched at full effort, unflagged."""
        if self.ef is None:
            return None
        reduced = max(k, int(self.ef) // 2)
        return reduced if reduced < max(k, int(self.ef)) else None

    def _dispatch(self, loop: asyncio.AbstractEventLoop, k: int) -> None:
        """Cut the current window into one block and run it off-loop."""
        timer = self._timers.pop(k, None)
        if timer is not None:
            timer.cancel()
        block = self._queues.pop(k, [])
        if not block:
            return
        now = time.perf_counter()
        if OBS.enabled:
            _COALESCED.observe(len(block))
            for pending in block:
                _WAITS.observe(now - pending.t_enqueue)
        self.n_blocks += 1
        self.n_dispatched += len(block)
        self._inflight += len(block)
        ef = self.ef
        browned = False
        if self._brownout.update(self._overload_score(block, now)):
            reduced = self._brownout_ef(k)
            browned = reduced is not None
        if browned:
            ef = reduced
            self.n_brownout_blocks += 1
            _BROWNOUT_BLOCKS.inc()
        queries = np.stack([p.query for p in block])

        def run():
            results = self.searcher.search_batch(
                queries, k, ef, batch_size=max(len(block), 1),
                deadline_ms=self.deadline_ms)
            if browned:
                # Reduced-effort answers are honest about it: the caller
                # sees the same degraded flag a deadline miss would set.
                results = [dataclasses.replace(r, degraded=True)
                           for r in results]
            return results

        task = loop.run_in_executor(self._executor, run)
        self._outstanding.add(task)
        task.add_done_callback(lambda fut: self._resolve(loop, block, fut))

    def _resolve(self, loop: asyncio.AbstractEventLoop,
                 block: list[_Pending], fut) -> None:
        self._inflight -= len(block)
        self._outstanding.discard(fut)
        riders = [(i, p.future) for i, p in enumerate(block)
                  if not p.future.done()]
        if fut.cancelled():
            # Happens when the awaiter is cancelled (a ``drain`` cut short
            # at loop teardown); ``fut.exception()`` would raise here and
            # strand the riders, so they are cancelled with their block.
            for _, rider in riders:
                rider.cancel()
        elif (exc := fut.exception()) is not None:
            for _, rider in riders:
                rider.set_exception(exc)
        else:
            results = fut.result()
            for i, rider in riders:
                rider.set_result(results[i])
        if not self._inflight:
            # The door went idle: whoever queued behind this block has no
            # further riders to wait for.
            for k in list(self._queues):
                self._dispatch(loop, k)

    async def drain(self) -> None:
        """Flush pending windows, await in-flight blocks, retire the pool.

        Terminal: the dispatch executor is shut down, so the door serves
        nothing afterwards (``search`` raises ``RuntimeError``).  Safe to
        call more than once.
        """
        loop = asyncio.get_running_loop()
        async with self._lock:
            self._closed = True
            for k in list(self._queues):
                self._dispatch(loop, k)
            outstanding = list(self._outstanding)
        if outstanding:
            await asyncio.gather(*outstanding, return_exceptions=True)
        self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        return {
            "dispatched": self.n_dispatched,
            "blocks": self.n_blocks,
            "mean_batch": (self.n_dispatched / self.n_blocks
                           if self.n_blocks else 0.0),
            "window_ms": self.window_ms,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "shed": self.n_shed,
            "max_depth_seen": self.max_depth_seen,
            "inflight": self._inflight,
            "brownout": self._brownout.stats(),
            "brownout_blocks": self.n_brownout_blocks,
        }
