"""Epoch-based serving layer: immutable graph epochs + delta overlay +
background maintenance.

The mutation/serving stack is split into three explicit layers so that the
query hot path never pays for — or races with — index repair:

- :class:`GraphEpoch` — an immutable snapshot of the graph: a frozen
  :class:`~repro.graphs.csr.CSRGraphView`, the entry point, and the tombstone
  set, all captured at one instant.  Epochs are never mutated; a search that
  pinned an epoch completes against exactly that state.
- :class:`DeltaOverlay` — an append-only log of every mutation made to the
  live :class:`~repro.graphs.adjacency.AdjacencyStore` since the epoch was
  cut.  The store feeds it from every edge mutation (a full post-mutation
  copy of the touched node's slab row) and from tombstone additions.
  Each record carries a monotone sequence number that is *published only
  after* the record is in place, so a reader holding a sequence number sees a
  complete, frozen prefix of the log.
- :class:`EpochView` — the read view the search paths traverse: the epoch's
  CSR plus the overlay prefix at a pinned sequence number.  It is callable
  (drop-in ``neighbors_fn`` for :func:`~repro.graphs.search.greedy_search`)
  and describes itself to the native executor (``native_graph``).

:class:`EpochManager` owns the current (epoch, overlay) pair and hands out
:class:`EpochPin` handles; :class:`ServingSearcher` is the index-protocol
facade that serves pinned searches; :class:`MaintenanceScheduler` serializes
all writes behind one lock, merges the overlay into a fresh epoch in the
background (the only O(E) operation, and it never runs on the query path),
and repairs queries flagged hard while serving via NGFix/RFix.

Concurrency model: one writer at a time (everything mutating the graph holds
``MaintenanceScheduler.write_lock``), any number of readers, no reader locks.
Reader safety rests on four invariants: epoch arrays are immutable, overlay
logs are append-only with publish-after-write sequence numbers, CPython
list appends are atomic under the GIL, and everything a search writes while
it runs (visited stamps, the block's pin, the batch engines that hold both)
is per thread.

Blocks across cores: ``ServingSearcher.search_batch`` runs its engine
blocks on the process's thread pool (:mod:`repro.utils.parallel`, one
thread per CPU the process may run on); the native executor releases the
GIL for a whole block, so the blocks walk in parallel.  Each pool thread is
just another reader — its own engine, visited table and block pin — and
hands its counters back for the calling thread to fold, so the answers and
counters are the serial ones.  Under a ``deadline_ms`` the blocks run in
order on the calling thread (the budget is spent on the rows in order), as
they do wherever the pool runs serially.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque

import numpy as np

from repro.faults import FAULTS
from repro.graphs import native
from repro.graphs.csr import CSRGraphView
from repro.graphs.search import BatchSearchEngine, SearchResult
from repro.obs import OBS, SECONDS_BUCKETS, TRACES, QueryTrace
from repro.quantization.searcher import rerank_block
from repro.utils.parallel import parallel_map

_EMPTY = np.empty(0, dtype=np.int64)

_PINS_TOTAL = OBS.counter(
    "serving_pins", "epoch pins taken by searches")
_PIN_SECONDS = OBS.histogram(
    "serving_pin_seconds", "epoch pin lifetime in seconds",
    buckets=SECONDS_BUCKETS)
_SERVE_QUERIES = OBS.counter(
    "serving_queries", "queries served through ServingSearcher.search")
_OBSERVED = OBS.counter(
    "maintenance_observed", "queries queued for online repair")
_REPAIRS = OBS.counter(
    "maintenance_repairs", "online NGFix/RFix repairs completed")
_REPAIR_SECONDS = OBS.histogram(
    "maintenance_repair_seconds", "one online repair's latency in seconds",
    buckets=SECONDS_BUCKETS)
_MERGES = OBS.counter(
    "maintenance_merges", "epoch merges (overlay folded into a fresh cut)")
_MERGE_SECONDS = OBS.histogram(
    "maintenance_merge_seconds", "one epoch merge's latency in seconds",
    buckets=SECONDS_BUCKETS)
_QUEUE_DROPS = OBS.counter(
    "maintenance_queue_dropped", "repair-queue entries dropped under pressure")
_WORKER_ERRORS = OBS.counter(
    "maintenance_worker_errors", "exceptions caught by the background worker")
_BULK_ABORTS = OBS.counter(
    "maintenance_bulk_aborts", "bulk rebuilds aborted by an exception")
_DEGRADED = OBS.counter(
    "serving_degraded_searches",
    "searches that returned best-so-far after a deadline budget expired")
_COMPRESSED_QUERIES = OBS.counter(
    "serving_compressed_queries",
    "queries served through the compressed (ADC + exact re-rank) path")
_ADC_SCORED = OBS.counter(
    "pq_adc_scored", "ADC table-lookup scorings on the compressed path")
_RERANK_NDC = OBS.histogram(
    "pq_rerank_ndc",
    "exact re-rank distance computations per compressed search")
_PAGEIN_SECONDS = OBS.counter(
    "memmap_pagein_seconds",
    "wall-clock spent gathering (possibly disk-resident) rows for re-rank")
_OBSERVE_SHED = OBS.counter(
    "maintenance_observe_shed",
    "observe() calls shed by admission control (queue saturated/worker dead)")
_FLUSH_TIMEOUTS = OBS.counter(
    "maintenance_flush_timeouts", "flush() calls that timed out undrained")
_FAILED_JOINS = OBS.counter(
    "maintenance_failed_joins", "stop() join timeouts (worker kept running)")

class DeltaOverlay:
    """Append-only mutation log since an epoch cut.

    For every node whose out-edges changed, the overlay stores the full
    post-mutation combined neighbor array (base edges first, extra edges in
    insertion order — exactly ``AdjacencyStore.neighbors``), stamped with a
    sequence number.  Resolving a node at a pinned sequence number is a
    binary search over that node's (short) log.  Tombstone additions are
    logged the same way.

    Writers must be serialized externally (the scheduler's write lock); the
    published ``seq`` is advanced only after the record is appended, so a
    reader that captured ``seq`` observes a complete prefix even while later
    writes land.
    """

    __slots__ = ("base_n_nodes", "seq", "_node_log", "_tomb_log", "_prefix")

    def __init__(self, base_n_nodes: int):
        self.base_n_nodes = base_n_nodes
        self.seq = 0  # last *published* sequence number
        self._node_log: dict[int, list[tuple[int, np.ndarray]]] = {}
        self._tomb_log: list[tuple[int, int]] = []
        # What views pinned at the newest sequence number share (see
        # EpochView._shared): the log is append-only, so a prefix once
        # materialised is valid for every view pinned at that ``seq``.
        self._prefix: _Prefix | None = None

    @property
    def n_ops(self) -> int:
        """Published mutation count (monotone)."""
        return self.seq

    def record_node(self, u: int, combined: np.ndarray) -> None:
        """Log node ``u``'s post-mutation combined neighbor array."""
        stamp = self.seq + 1
        self._node_log.setdefault(u, []).append((stamp, combined))
        self.seq = stamp  # publish last: pinned readers never see a torn log

    def record_tombstone(self, node: int) -> None:
        """Log a lazy deletion."""
        stamp = self.seq + 1
        self._tomb_log.append((stamp, int(node)))
        self.seq = stamp

    def resolve(self, u: int, seq: int) -> np.ndarray | None:
        """Node ``u``'s neighbor array at sequence ``seq`` (None = unchanged)."""
        log = self._node_log.get(u)
        if not log:
            return None
        if log[-1][0] <= seq:  # the usual case: the pin is the newest
            return log[-1][1]
        i = bisect.bisect_right(log, seq, key=lambda entry: entry[0])
        return log[i - 1][1] if i else None

    def tombstones_at(self, seq: int) -> set[int]:
        """Tombstones added up to (and including) sequence ``seq``."""
        out: set[int] = set()
        for stamp, node in self._tomb_log:
            if stamp > seq:
                break
            out.add(node)
        return out

    def touched_count(self) -> int:
        return len(self._node_log)


class _Prefix:
    """What every view pinned at one ``(epoch, overlay seq)`` shares.

    ``excluded`` is the id set barred from results (epoch tombstones plus
    ``fresh``, the overlay's tombstones up to ``seq``); ``native`` the
    view's :class:`repro.graphs.native.Graph`, built on first use (None =
    not yet, False = the epoch's CSR has no native description).
    """

    __slots__ = ("seq", "excluded", "fresh", "native")

    def __init__(self, seq: int, excluded: set[int], fresh: set[int]):
        self.seq = seq
        self.excluded = excluded
        self.fresh = fresh
        self.native = None


class GraphEpoch:
    """One immutable serving snapshot of the graph.

    ``graph`` is a frozen CSR view, ``entry`` the search entry point, and
    ``tombstones`` the lazily deleted ids — all captured at the cut instant.
    Nothing here is ever mutated; searches pinned to an epoch are therefore
    reproducible bit-for-bit for as long as they hold the pin.
    """

    __slots__ = ("epoch_id", "graph", "entry", "tombstones", "n_nodes",
                 "_mask")

    def __init__(self, epoch_id: int, graph: CSRGraphView, entry: int,
                 tombstones: frozenset[int]):
        self.epoch_id = epoch_id
        self.graph = graph
        self.entry = int(entry)
        self.tombstones = tombstones
        self.n_nodes = graph.n_nodes
        self._mask: np.ndarray | None = None

    def tombstone_mask(self) -> np.ndarray:
        """``tombstones`` as a uint8 bitmap over this epoch's nodes (built
        once; what the native executor tests instead of a set)."""
        if self._mask is None:
            self._mask = native.excluded_mask(self.tombstones, self.n_nodes)
        return self._mask


class EpochView:
    """Consistent read view: epoch CSR + overlay prefix at a fixed ``seq``.

    Callable with a node id (drop-in ``neighbors_fn``).
    """

    __slots__ = ("epoch", "overlay", "seq", "_prefix")

    def __init__(self, epoch: GraphEpoch, overlay: DeltaOverlay, seq: int):
        self.epoch = epoch
        self.overlay = overlay
        self.seq = seq
        self._prefix: _Prefix | None = None

    def _shared(self) -> _Prefix:
        """This view's :class:`_Prefix`, taken from (or published to) the
        overlay so the next view pinned at the same ``seq`` reuses it."""
        prefix = self._prefix
        if prefix is None:
            prefix = self.overlay._prefix
            if prefix is None or prefix.seq != self.seq:
                fresh = self.overlay.tombstones_at(self.seq)
                prefix = _Prefix(self.seq, fresh | self.epoch.tombstones,
                                 fresh)
                self.overlay._prefix = prefix
            self._prefix = prefix
        return prefix

    def neighbors(self, u: int) -> np.ndarray:
        """Out-neighbors of ``u`` under this view."""
        delta = self.overlay.resolve(u, self.seq)
        if delta is not None:
            return delta
        if u < self.epoch.n_nodes:
            return self.epoch.graph.neighbors(u)
        return _EMPTY  # node inserted after this view's horizon

    __call__ = neighbors

    def excluded(self) -> set[int] | None:
        """Ids barred from results: epoch tombstones + overlay prefix.

        Shared by every view of this prefix — read-only to callers.
        """
        return self._shared().excluded or None

    def native_graph(self):
        """This view as a :class:`repro.graphs.native.Graph`, or None.

        The epoch's CSR, plus the overlay prefix at ``seq`` materialised as
        a second, small CSR over the touched nodes (``patch_slot[u]`` is
        ``u``'s row in it, -1 for a clean node), plus :meth:`excluded` as a
        bitmap.  Built once per prefix and shared through the overlay: a
        search pays for the materialisation only when it is the first to
        pin after a write.
        """
        prefix = self._shared()
        if prefix.native is None:
            prefix.native = self._materialise(prefix) or False
        return prefix.native or None

    def _materialise(self, prefix: _Prefix):
        base = self.epoch.graph.native_graph()
        if base is None:
            return None
        overlay, seq, n0 = self.overlay, self.seq, self.epoch.n_nodes
        nodes, deltas = [], []
        # list(): a writer may add keys while this reader walks the log.
        for u in list(overlay._node_log):
            delta = overlay.resolve(u, seq)
            if delta is not None:
                nodes.append(u)
                deltas.append(delta)
        patch = None
        if nodes:
            slot = np.full(max(n0, max(nodes) + 1), -1, dtype=np.int32)
            slot[nodes] = np.arange(len(nodes), dtype=np.int32)
            indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
            np.cumsum([d.shape[0] for d in deltas], out=indptr[1:])
            patch = (slot, indptr, np.concatenate(deltas).astype(np.int32))
        mask = self.epoch.tombstone_mask()
        if prefix.fresh:
            ids = np.fromiter(prefix.fresh, dtype=np.int64,
                              count=len(prefix.fresh))
            grown = np.zeros(max(mask.shape[0], int(ids.max()) + 1),
                             dtype=np.uint8)
            grown[:mask.shape[0]] = mask
            grown[ids] = 1
            mask = grown
        return native.Graph(base.indptr, base.indices, patch,
                            prefix.excluded, mask)


class EpochPin:
    """A cheap handle keeping one (epoch, overlay-seq) pair live for a search.

    Usable as a context manager; :meth:`release` is idempotent and also runs
    from ``__del__`` so a dropped pin never leaks the epoch's pin count.
    """

    __slots__ = ("epoch", "view", "created", "_manager", "_released")

    def __init__(self, manager: "EpochManager", epoch: GraphEpoch,
                 view: EpochView):
        self.epoch = epoch
        self.view = view
        self.created = time.perf_counter()
        self._manager = manager
        self._released = False

    def age(self) -> float:
        """Seconds since this pin was taken."""
        return time.perf_counter() - self.created

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._unpin(self.epoch.epoch_id)
            if OBS.enabled:
                _PIN_SECONDS.observe(time.perf_counter() - self.created)

    def __enter__(self) -> "EpochPin":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass


class EpochManager:
    """Owns the current epoch + overlay of one live adjacency store.

    ``cut()`` freezes the live store into a fresh immutable epoch and swaps
    in an empty overlay — the only O(E) operation in the serving stack, and
    it is called off the query path (by the maintenance scheduler or at
    bulk-operation boundaries).  ``pin()`` is what the query path calls: it
    captures the current (epoch, overlay, seq) triple under a short lock.

    The caller must guarantee no concurrent mutations during ``cut()``
    (the scheduler holds its write lock); pins require no such guarantee.
    """

    def __init__(self, adjacency, entry: int):
        self.adjacency = adjacency
        self._lock = threading.Lock()
        self._epoch_counter = 0
        self._pin_counts: dict[int, int] = {}
        self.n_cuts = 0
        self.current: GraphEpoch | None = None
        self.overlay: DeltaOverlay | None = None
        self._suspended = False
        self._cut_time = time.monotonic()
        self.cut(entry)
        # Callback gauges read live state at scrape time; re-registration by
        # a newer manager instance replaces the callbacks (newest wins).
        OBS.gauge_fn("epoch_id",
                     lambda: self.current.epoch_id if self.current else -1,
                     "current serving epoch id")
        OBS.gauge_fn("epoch_age_seconds",
                     lambda: time.monotonic() - self._cut_time,
                     "seconds since the current epoch was cut")
        OBS.gauge_fn("epoch_active_pins", self.active_pins,
                     "pins currently held by in-flight searches")
        OBS.gauge_fn("overlay_ops",
                     lambda: self.overlay.n_ops if self.overlay else 0,
                     "published mutations in the current overlay")
        OBS.gauge_fn("overlay_nodes_touched",
                     lambda: (self.overlay.touched_count()
                              if self.overlay else 0),
                     "distinct nodes with overlay deltas")

    # -- lifecycle ----------------------------------------------------------

    def cut(self, entry: int | None = None) -> GraphEpoch:
        """Freeze the live store into a new epoch; start a fresh overlay.

        This is the one place a CSR snapshot is built
        (:meth:`~repro.graphs.adjacency.AdjacencyStore.freeze`, a fresh
        O(E) gather of the slab on every cut); every other search over the
        live graph walks the slab itself.  Callers must hold the write lock
        (no concurrent mutations).  Old epochs/overlays stay alive for as
        long as pins reference them.
        """
        graph = self.adjacency.freeze()
        # Compacted (removed) ids stay excluded forever: their edges are
        # gone but their data rows remain, so result filtering is the last
        # line of defense against them resurfacing.
        tombstones = frozenset(self.adjacency.tombstones
                               | self.adjacency.removed)
        overlay = DeltaOverlay(graph.n_nodes)
        with self._lock:
            self._epoch_counter += 1
            self.n_cuts += 1
            if entry is None:
                entry = self.current.entry
            epoch = GraphEpoch(self._epoch_counter, graph, entry, tombstones)
            self.current, self.overlay = epoch, overlay
            self._suspended = False
            self._cut_time = time.monotonic()
        self.adjacency.attach_overlay(overlay)
        return epoch

    def suspend_overlay(self) -> None:
        """Stop logging mutations (bulk rebuild ahead; serve the old epoch).

        While suspended, pins keep returning the pre-suspension epoch plus
        the (now frozen) overlay — a consistent, slightly stale view.  Call
        :meth:`cut` to resume with a fresh epoch reflecting the bulk work,
        or :meth:`resume_overlay` to back out of an aborted bulk.
        """
        self.adjacency.detach_overlay()
        with self._lock:
            self._suspended = True

    def resume_overlay(self) -> None:
        """Re-attach the pre-suspension overlay without cutting (bulk abort).

        The failure-path inverse of :meth:`suspend_overlay`: the current
        (epoch, overlay) pair keeps serving exactly the pre-bulk state, and
        subsequent mutations are logged again.  Mutations made *while*
        suspended were never logged, so they stay invisible to pins until
        the next cut folds the live graph into a fresh epoch.
        """
        with self._lock:
            self._suspended = False
        if self.overlay is not None:
            self.adjacency.attach_overlay(self.overlay)

    # -- pinning ------------------------------------------------------------

    def pin(self) -> EpochPin:
        """Pin the current epoch for one search."""
        with self._lock:
            epoch, overlay = self.current, self.overlay
            view = EpochView(epoch, overlay, overlay.seq)
            self._pin_counts[epoch.epoch_id] = \
                self._pin_counts.get(epoch.epoch_id, 0) + 1
        _PINS_TOTAL.inc()
        return EpochPin(self, epoch, view)

    def _unpin(self, epoch_id: int) -> None:
        with self._lock:
            count = self._pin_counts.get(epoch_id, 0) - 1
            if count <= 0:
                self._pin_counts.pop(epoch_id, None)
            else:
                self._pin_counts[epoch_id] = count

    def active_pins(self) -> int:
        with self._lock:
            return sum(self._pin_counts.values())

    def stats(self) -> dict:
        with self._lock:
            overlay = self.overlay
            return {
                "epoch_id": self.current.epoch_id,
                "epoch_n_nodes": self.current.n_nodes,
                "n_cuts": self.n_cuts,
                "overlay_ops": overlay.n_ops if overlay is not None else 0,
                "overlay_nodes_touched": (overlay.touched_count()
                                          if overlay is not None else 0),
                "active_pins": sum(self._pin_counts.values()),
                "suspended": self._suspended,
                "epoch_age_seconds": time.monotonic() - self._cut_time,
            }


class _Scratch(threading.local):
    """What one thread's searches write while they run.

    The native executor releases the GIL for a whole traversal (and the
    reference loop yields it between hops), so nothing here may be shared
    between threads: the pin of the engine block in flight, and the batch
    engines — each owns a visited table and reads that pin.
    """

    def __init__(self):  # runs once per thread, on first access
        self.block_pin: EpochPin | None = None
        self.engines: dict[tuple, BatchSearchEngine] = {}


class ServingSearcher:
    """Index-protocol facade serving epoch-pinned searches.

    Exposes ``search``/``search_batch`` and ``dc`` exactly like a
    :class:`~repro.graphs.base.GraphIndex`, so it drops into
    :func:`~repro.evalx.runner.evaluate_index` unchanged.  Searches pin the
    current epoch once per engine block.  The query path never touches the
    store's live slab or the O(E) ``freeze`` — epoch-consistency and
    wait-freedom come from the pin.

    A lone :meth:`search` is a block of one walked at width 1, so every
    query runs the same stages, each written once: **resolve** (the
    explicit ``ef``, else ``max(k, 10)``), then per engine block
    (:meth:`_run`) **pin**, **entries** (the epoch entry), **traverse** (a
    per-thread cached :class:`~repro.graphs.search.BatchSearchEngine`),
    **re-rank** (compressed routes only —
    :func:`~repro.quantization.searcher.rerank_block`), then **account**
    (:meth:`_account`, once per search on the calling thread; a
    :meth:`search` also records its trace while telemetry is on).

    **Blocks across cores.**  :meth:`search_batch` maps its blocks over
    the process's thread pool (:func:`~repro.utils.parallel.parallel_map`)
    and returns the results in input order: each block is one native call
    that releases the GIL, on a pool thread with its own engine, visited
    table and pin, so the answers are the serial ones.  Under
    ``deadline_ms`` the blocks run in order on the calling thread, as they
    do wherever the pool runs serially (one allowed CPU, a single block, a
    forked child such as a shard worker).

    **Compressed mode.**  When an :class:`~repro.quantization.adc.ADCComputer`
    is attached (``adc=``), traversal scoring runs over its resident uint8
    code matrix — ADC table lookups instead of full-precision rows — and
    only the top-``rerank`` shortlist is re-scored exactly against ``dc``.
    With a memmap-backed ``dc`` the raw vectors stay on disk and the
    re-rank gather is the only thing that pages them in.  Tombstone/removed
    exclusion, ``deadline_ms`` degradation, and epoch pinning behave
    identically to the uncompressed path.
    """

    def __init__(self, fixer, manager: EpochManager, adc=None,
                 rerank: int = 50, beam_width: int | None = None):
        self.fixer = fixer
        self.manager = manager
        self._scratch = _Scratch()
        self._fold_lock = threading.Lock()  # the counters below
        self.rerank = rerank
        self.attach_adc(adc, beam_width=beam_width)
        self.n_degraded = 0
        self.adc_scored = 0     # cumulative ADC scorings (compressed mode)
        self.rerank_ndc = 0     # cumulative exact re-rank computations
        self.pagein_seconds = 0.0  # re-rank gather wall-clock (memmap timing)
        # Telemetry hook: the owning store points this at its scheduler's
        # queue so per-query traces carry the repair backlog.
        self.queue_depth_fn = None

    @property
    def dc(self):
        return self.fixer.dc

    @property
    def compressed(self) -> bool:
        return self.adc is not None

    def attach_adc(self, adc, rerank: int | None = None,
                   beam_width: int | None = None) -> None:
        """Swap in (or install) an ADC computer.

        Cached engines notice by themselves: :meth:`_engine` rebuilds one
        whose scorer is no longer the searcher's, so after a codebook swap
        (e.g. the cluster router shipping a shared PQ) no block keeps
        scoring with the old codes.
        """
        self.adc = adc
        if rerank is not None:
            self.rerank = rerank
        # Default beam: wide only where scoring is cheap (ADC) and its
        # larger scored set feeds the exact re-rank; the full-precision
        # engine keeps width 1 (sequential equivalence).  An explicit
        # beam_width overrides.
        if beam_width is None:
            beam_width = 4 if adc is not None else 1
        self.beam_width = beam_width

    def stats(self) -> dict:
        """Aggregatable searcher counters (summed across shards via
        :func:`repro.cluster.stats.merge_stats`)."""
        return {
            "n_degraded": self.n_degraded,
            "adc_scored": self.adc_scored,
            "rerank_ndc": self.rerank_ndc,
            "pagein_seconds": self.pagein_seconds,
            "compressed": self.compressed,
            # Which traversal executor this process is on, and if it is the
            # reference one, why (no compiler, REPRO_NO_NATIVE, ...).
            "native": native.status(),
        }

    # -- pipeline stages -----------------------------------------------------

    def _account(self, rerank: tuple | None, n_degraded: int) -> None:
        """Stage *account*: fold one search's counters into the searcher —
        once, on the calling thread, whichever threads ran its blocks.

        ``rerank`` is the search's compressed tally (see :meth:`_run`;
        None on the exact route), ``n_degraded`` its rows cut short.
        """
        if rerank is not None:
            n_queries, adc_scored, exact_ndc, seconds = rerank
            with self._fold_lock:
                self.adc_scored += adc_scored
                self.rerank_ndc += exact_ndc
                self.pagein_seconds += seconds
            if OBS.enabled:
                _COMPRESSED_QUERIES.inc(n_queries)
                _ADC_SCORED.inc(adc_scored)
                _RERANK_NDC.observe(exact_ndc)
                _PAGEIN_SECONDS.inc(seconds)
        if n_degraded:
            with self._fold_lock:
                self.n_degraded += n_degraded
            _DEGRADED.inc(n_degraded)

    def search(self, query: np.ndarray, k: int, ef: int | None = None,
               deadline_ms: float | None = None) -> SearchResult:
        """Top-k search against a pinned epoch view: a block of one row,
        walked at width 1 whatever ``beam_width`` is.

        ``deadline_ms`` caps the search's latency budget: past it the
        search stops expanding and returns best-so-far results with
        ``SearchResult.degraded`` set (and the
        ``serving_degraded_searches`` counter bumped) instead of blocking
        the caller — graceful degradation, never an error.  ``ef=None``
        means ``max(k, 10)``.  While telemetry is on the search records a
        :class:`~repro.obs.QueryTrace`.
        """
        telemetry = OBS.enabled
        if telemetry:
            t0 = time.perf_counter()
        if ef is None:
            ef = max(k, 10)
        deadline = _deadline(deadline_ms)
        [result], rerank, (epoch_id, seq, pin_seconds) = self._run(
            np.asarray(query, dtype=np.float32)[None], k, ef, 1, 1, deadline)
        self._account(rerank, int(result.degraded))
        if telemetry:
            # The search's own exact scorings: ``dc.ndc`` is shared with
            # concurrent readers, so a delta of it would bill theirs too.
            _SERVE_QUERIES.inc()
            TRACES.record(QueryTrace(
                k=k, ef=ef, n_hops=result.n_hops,
                ndc=result.ndc if rerank is None else rerank[2],
                frontier_peak=result.frontier_peak,
                epoch_id=epoch_id, overlay_seq=seq, pin_seconds=pin_seconds,
                elapsed_seconds=time.perf_counter() - t0,
                queue_depth=(self.queue_depth_fn()
                             if self.queue_depth_fn is not None else 0),
                degraded=result.degraded, executor=result.executor))
        return result

    def search_batch(self, queries: np.ndarray, k: int,
                     ef: int | None = None, batch_size: int = 32,
                     deadline_ms: float | None = None) -> list[SearchResult]:
        """Batched pinned search; each engine block sees one epoch view.

        The ``batch_size`` blocks run on the process's thread pool, one per
        core (see the class docstring), and the results come back in input
        order, equal to running the blocks one after the other.
        ``deadline_ms`` budgets the whole batch, and every answer that
        stopped short of full effort is flagged ``degraded``.  The rows
        are walked in order against it, on the calling thread (see
        :meth:`BatchSearchEngine.search_batch
        <repro.graphs.search.BatchSearchEngine.search_batch>`): rows that
        started before the budget ran out are full-effort (or best-so-far)
        and every later row returns its scored entry points only.
        ``ef=None`` means ``max(k, 10)``.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if ef is None:
            ef = max(k, 10)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        deadline = _deadline(deadline_ms)
        blocks = [queries[start:start + batch_size]
                  for start in range(0, queries.shape[0], batch_size)]

        def run(block):
            return self._run(block, k, ef, batch_size, self.beam_width,
                             deadline)

        runs = (parallel_map(run, blocks) if deadline is None
                else [run(block) for block in blocks])
        results = [result for block, _, _ in runs for result in block]
        reranks = [rerank for _, rerank, _ in runs if rerank is not None]
        self._account(
            tuple(map(sum, zip(*reranks))) if reranks else None,
            0 if deadline is None else sum(r.degraded for r in results))
        return results

    # -- pipeline ------------------------------------------------------------

    def _pin_block(self) -> EpochView:
        """graph_fn hook: re-pin at each engine block boundary."""
        scratch = self._scratch
        if scratch.block_pin is not None:
            scratch.block_pin.release()
        scratch.block_pin = self.manager.pin()
        return scratch.block_pin.view

    def _engine(self, batch_size: int, beam_width: int) -> BatchSearchEngine:
        """The calling thread's cached engine for one ``(batch_size, beam,
        scorer)``."""
        scratch = self._scratch
        use_adc = self.adc is not None
        scorer = self.adc if use_adc else self.dc
        key = (batch_size, beam_width, use_adc)
        engine = scratch.engines.get(key)
        if engine is None or engine.dc is not scorer:
            engine = scratch.engines[key] = BatchSearchEngine(
                scorer,
                # Fallbacks never used: graph_fn always supplies a view and
                # entries are query-independent within a block, so they
                # are seeded once per block instead of once per query.
                lambda u: scratch.block_pin.view(u),
                lambda q: [scratch.block_pin.epoch.entry],
                excluded_fn=lambda: scratch.block_pin.view.excluded(),
                batch_size=batch_size,
                graph_fn=self._pin_block,
                beam_width=beam_width,
                entry_points_block_fn=(
                    lambda qmat: [scratch.block_pin.epoch.entry]),
            )
        return engine

    def _run(self, queries: np.ndarray, k: int, ef: int, batch_size: int,
             beam_width: int, deadline: float | None,
             ) -> tuple[list[SearchResult], tuple | None, tuple | None]:
        """One run's stages from pin to re-rank, on whichever thread calls
        it: it writes only that thread's scratch and hands its counters
        back for :meth:`_account`.

        Returns ``(results, rerank, pinned)``: ``rerank`` is a compressed
        run's ``(n_queries, adc_scorings, exact_ndc, rerank_seconds)``
        (None on the exact route), and ``pinned`` the last block's pin as
        it stood just before its release, ``(epoch_id, overlay_seq,
        pin_seconds)``.
        """
        engine = self._engine(batch_size, beam_width)
        scratch = self._scratch
        pinned = rerank = None  # no row, no block, no pin
        try:
            if self.adc is not None:
                # Live exclusion set (superset of any pinned view's):
                # neither the shortlist nor the fallback scan may surface
                # a tombstoned/removed id.
                results, n_scored, exact_ndc, seconds = rerank_block(
                    engine, self.adc, self.dc, queries, k, ef, self.rerank,
                    self.fixer.adjacency.excluded_ids, deadline)
                rerank = (len(results), n_scored, exact_ndc, seconds)
            else:
                results = engine.search_batch(queries, k, ef,
                                              deadline=deadline)
        finally:
            pin = scratch.block_pin
            if pin is not None:
                pinned = (pin.epoch.epoch_id, pin.view.seq, pin.age())
                pin.release()
                scratch.block_pin = None
        return results, rerank, pinned


def _deadline(deadline_ms: float | None) -> float | None:
    """A ``deadline_ms`` budget as an absolute ``time.perf_counter()``."""
    return (None if deadline_ms is None
            else time.perf_counter() + deadline_ms / 1000.0)


class MaintenanceScheduler:
    """Serializes writes and folds them into fresh epochs off the query path.

    Three responsibilities:

    1. **Write serialization** — every mutation of the live graph (insert,
       delete, online fix, merge) runs under :attr:`write_lock`, so the
       single-writer invariant the overlay relies on holds.
    2. **Merging** — once the overlay holds ``merge_every`` published ops,
       the scheduler cuts a fresh epoch (the O(E) ``freeze``), swapping it
       in atomically for new pins.  In-flight pinned searches are
       untouched.
    3. **Online repair** — every query fed to :meth:`observe` that the
       queue can hold is queued and repaired with the fixer's NGFix/RFix
       pass (``fix_query``): hardness is measured against the live graph
       and edges are added only where the Escape Hardness measurement
       demands them, so "flagged hard" is decided by the same machinery
       ``fit()`` uses — now continuously, while serving.

    ``mode="inline"`` (default) drains pending work synchronously at
    well-defined points (:meth:`observe`, :meth:`note_mutations`,
    :meth:`run_pending`) — fully deterministic, no threads.
    ``mode="thread"`` runs the same drain loop on a daemon worker so repair
    and merging overlap serving; :meth:`flush` waits for quiescence.  A
    drain empties the whole queue, except the one a mutation triggers in
    inline mode, which only merges.
    """

    def __init__(self, fixer, manager: EpochManager, *,
                 merge_every: int = 256, queue_limit: int = 64,
                 mode: str = "inline"):
        if merge_every <= 0:
            raise ValueError(f"merge_every must be positive, got {merge_every}")
        if mode not in ("inline", "thread"):
            raise ValueError(f"mode must be 'inline' or 'thread', got {mode!r}")
        self.fixer = fixer
        self.manager = manager
        self.merge_every = merge_every
        self.queue_limit = queue_limit
        self.mode = mode
        self.write_lock = threading.RLock()
        self._queue: deque[np.ndarray] = deque()
        self._idle = threading.Condition()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.n_merges = 0
        self.n_repairs = 0
        self.n_observed = 0
        self.n_dropped = 0
        self.n_shed = 0
        self.n_worker_errors = 0
        self.n_bulk_aborts = 0
        self.n_flush_timeouts = 0
        self.n_failed_joins = 0
        self.last_worker_error: str | None = None
        # Durability hook: the owning store points this at its write-ahead
        # log so repair/merge commits are journaled (see repro.durability).
        self.wal = None
        self.last_merge_seconds = 0.0
        self.repair_seconds = 0.0   # cumulative online-repair wall-clock
        self.merge_seconds = 0.0    # cumulative epoch-cut wall-clock
        self._last_heartbeat = time.monotonic()
        OBS.gauge_fn("maintenance_queue_depth", lambda: len(self._queue),
                     "repair queries waiting in the scheduler queue")
        OBS.gauge_fn("maintenance_worker_alive",
                     lambda: float(self.worker_alive()),
                     "1 when background maintenance can make progress")
        OBS.gauge_fn("maintenance_worker_heartbeat_age_seconds",
                     lambda: time.monotonic() - self._last_heartbeat,
                     "seconds since the maintenance drain loop last ran")

    # -- write-side hooks ---------------------------------------------------

    def observe(self, query: np.ndarray) -> bool:
        """Queue one served query for online NGFix/RFix repair.

        Admission control: repair is best-effort quality improvement, so
        when the system cannot keep up — the queue is saturated or the
        background worker is dead — the call is *shed* (returns False,
        ``maintenance_observe_shed`` counted) rather than queued into a
        backlog nobody will drain.  Searches are never shed; only repair
        feedback is.  Under milder pressure the bounded queue still drops
        the *oldest* entry (the most recent traffic best reflects the
        current workload).  Inline mode drains immediately; thread mode
        wakes the worker.  Returns True when the query was accepted.
        """
        if self._should_shed():
            self.n_shed += 1
            _OBSERVE_SHED.inc()
            return False
        query = np.array(query, dtype=np.float32, copy=True)
        _OBSERVED.inc()
        with self._idle:
            self._queue.append(query)
            self.n_observed += 1
            if len(self._queue) > self.queue_limit:
                self._queue.popleft()
                self.n_dropped += 1
                _QUEUE_DROPS.inc()
        if self.mode == "inline":
            self.run_pending()
        else:
            self._wake.set()
        return True

    def _should_shed(self) -> bool:
        """Whether to refuse new repair work (saturated queue / dead worker)."""
        if self.mode == "thread" and not self.worker_alive():
            return True
        return len(self._queue) >= self.queue_limit

    def note_mutations(self) -> None:
        """Signal that graph mutations landed (insert/delete paths call this)."""
        if not self._merge_due():
            return
        if self.mode == "inline":
            # A mutation-triggered drain merges only; repairs wait for
            # the next observe() or explicit drain.
            self.run_pending(repair=False)
        else:
            self._wake.set()

    def _merge_due(self) -> bool:
        overlay = self.manager.overlay
        return overlay is not None and overlay.n_ops >= self.merge_every

    # -- draining -----------------------------------------------------------

    def run_pending(self, repair: bool = True) -> dict:
        """Drain every queued repair (unless ``repair`` is False), then
        merge if the overlay is due.

        Safe to call from any thread; all work runs under the write lock.
        Returns counts of what was done.
        """
        repaired = 0
        self._last_heartbeat = time.monotonic()
        FAULTS.fire("worker.drain")
        with self.write_lock:
            while repair:
                with self._idle:
                    if not self._queue:
                        break
                    query = self._queue.popleft()
                # Chaos hook: a crash here loses the in-flight repair but
                # nothing else — it was never journaled (see below), so
                # replay simply skips it.
                FAULTS.fire("scheduler.pre_repair")
                t0 = time.perf_counter()
                self.fixer.fix_query(query)
                # Journal the repair only after it committed to the graph:
                # replay re-runs exactly the repairs that actually landed.
                if self.wal is not None:
                    self.wal.log_observe(query)
                elapsed = time.perf_counter() - t0
                self.repair_seconds += elapsed
                _REPAIR_SECONDS.observe(elapsed)
                _REPAIRS.inc()
                self.n_repairs += 1
                repaired += 1
            merged = False
            if self._merge_due():
                self.merge_now()
                merged = True
        with self._idle:
            self._idle.notify_all()
        return {"repaired": repaired, "merged": merged}

    def merge_now(self) -> GraphEpoch:
        """Cut a fresh epoch from the live graph (O(E), off the query path)."""
        with self.write_lock:
            FAULTS.fire("scheduler.pre_merge")
            start = time.perf_counter()
            epoch = self.manager.cut(entry=self.fixer.entry)
            if self.wal is not None:
                self.wal.log_merge_cut()
            self.last_merge_seconds = time.perf_counter() - start
            self.merge_seconds += self.last_merge_seconds
            self.n_merges += 1
            _MERGES.inc()
            _MERGE_SECONDS.observe(self.last_merge_seconds)
            return epoch

    def bulk(self):
        """Context manager for bulk rebuilds (``fit``, compaction).

        Suspends overlay logging (serving continues against the pinned
        pre-bulk epoch), holds the write lock for the duration, and cuts a
        fresh epoch on exit so the bulk result becomes visible atomically.
        """
        return _BulkContext(self)

    # -- background worker --------------------------------------------------

    def start(self) -> "MaintenanceScheduler":
        """Start the background worker (thread mode only; idempotent)."""
        if self.mode != "thread":
            raise RuntimeError("start() requires mode='thread'")
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._worker, name="repro-maintenance", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> bool:
        """Stop the background worker, draining nothing further.

        Returns True once the worker has actually exited.  On join timeout
        the thread handle is deliberately *kept*: the worker may still be
        running, so dropping the handle would make ``worker_alive()``
        report a live worker as dead and let a second ``start()`` spawn a
        duplicate.  The failed join is counted
        (``maintenance_failed_joins``); calling ``stop()`` again retries
        the join.
        """
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout)
        if thread.is_alive():
            self.n_failed_joins += 1
            _FAILED_JOINS.inc()
            return False
        self._thread = None
        return True

    def flush(self, timeout: float | None = 10.0) -> bool:
        """Block until the repair queue is empty and no merge is due.

        In inline mode this drains synchronously.  Returns False on timeout.
        """
        if self.mode == "inline" or self._thread is None:
            self.run_pending()
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        self._wake.set()
        with self._idle:
            while self._queue or self._merge_due():
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    self.n_flush_timeouts += 1
                    _FLUSH_TIMEOUTS.inc()
                    return False
                self._idle.wait(0.05 if remaining is None
                                else min(0.05, remaining))
                self._wake.set()
        return True

    def _worker(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.05)
            self._wake.clear()
            self._last_heartbeat = time.monotonic()
            if self._stop.is_set():
                break
            try:
                self.run_pending()
            except Exception as exc:
                # One poisoned repair (or a failing merge) must not silently
                # kill background maintenance forever: count it, remember it
                # for stats()/telemetry, and keep draining.  The query that
                # raised was already popped, so the loop cannot wedge on it.
                self.n_worker_errors += 1
                self.last_worker_error = repr(exc)
                _WORKER_ERRORS.inc()

    def worker_alive(self) -> bool:
        """Whether background maintenance can make progress.

        Inline mode drains synchronously at call sites, so it is always
        "alive"; thread mode requires a started, living worker thread.
        """
        if self.mode == "inline":
            return True
        return self._thread is not None and self._thread.is_alive()

    def stats(self) -> dict:
        with self._idle:
            queued = len(self._queue)
        return {
            "mode": self.mode,
            "merges": self.n_merges,
            "repairs": self.n_repairs,
            "observed": self.n_observed,
            "dropped": self.n_dropped,
            "shed": self.n_shed,
            "queued": queued,
            "flush_timeouts": self.n_flush_timeouts,
            "failed_joins": self.n_failed_joins,
            "last_merge_seconds": self.last_merge_seconds,
            "repair_seconds": self.repair_seconds,
            "merge_seconds": self.merge_seconds,
            "merge_every": self.merge_every,
            "worker_alive": self.worker_alive(),
            "worker_errors": self.n_worker_errors,
            "worker_last_error": self.last_worker_error,
            "worker_heartbeat_age_seconds":
                time.monotonic() - self._last_heartbeat,
            "bulk_aborts": self.n_bulk_aborts,
            **{f"epoch_{k}": v for k, v in self.manager.stats().items()},
        }


class _BulkContext:
    """Write-locked overlay suspension around a bulk rebuild.

    The success path cuts a fresh epoch on exit so the bulk result becomes
    visible atomically.  The failure path must NOT cut: the bulk body died
    partway, and publishing would hand every new pin a half-built graph.
    Instead the pre-bulk (epoch, overlay) pair keeps serving, overlay
    logging resumes for subsequent mutations, the abort is counted
    (``n_bulk_aborts`` + the ``maintenance_bulk_aborts`` counter), and the
    exception propagates.  The failed bulk's partial mutations stay
    invisible until the next cut deliberately folds the live graph.
    """

    def __init__(self, scheduler: MaintenanceScheduler):
        self._scheduler = scheduler

    def __enter__(self):
        self._scheduler.write_lock.acquire()
        self._scheduler.manager.suspend_overlay()
        return self._scheduler

    def __exit__(self, exc_type, exc, tb):
        scheduler = self._scheduler
        try:
            if exc_type is None:
                scheduler.manager.cut(entry=scheduler.fixer.entry)
                scheduler.n_merges += 1
                _MERGES.inc()
            else:
                scheduler.manager.resume_overlay()
                scheduler.n_bulk_aborts += 1
                _BULK_ABORTS.inc()
        finally:
            scheduler.write_lock.release()
        return False  # propagate any exception from the bulk body
