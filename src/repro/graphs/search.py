"""Greedy (beam) search — Algorithm 1 of the paper — plus the batch engine.

The sequential search keeps a candidate min-heap ``C`` and a bounded result
max-heap ``R`` of size ``ef`` (the paper's search list size L).  At each step
the closest unexpanded candidate is popped; if it is farther than the worst
result and ``R`` is full, the search terminates.  Otherwise its unvisited
neighbors are batch-scored (one vectorized distance call — this is where NDC
accrues) and pushed.

**One algorithm, two executors.**  :func:`beam_search` is the *reference
executor*: the Python loop, parameterised by a scoring callable
(:func:`greedy_search` runs it on the exact kernel,
:func:`repro.quantization.searcher.pq_greedy_search` on ADC lookups).  The
*native executor* is the same algorithm in C (``_beam.c``, built and loaded
by :mod:`repro.graphs.native`), about ten times cheaper per hop.
:func:`native_search` picks between them, once, for every search entry
point: it asks the scorer and the graph to describe themselves
(``native_scorer`` / ``native_graph``, looked up on their *exact* type) and
runs natively when both can — a frozen CSR or epoch view scored by a plain
:class:`~repro.distances.DistanceComputer` or PQ codes — else the reference
loop runs: a mutable ``AdjacencyStore`` (index construction, ``fix_query``),
a proxy scorer, a float64 query, a machine without a C compiler.  The two
are tested differentially (``tests/test_native.py``): same ids, hops, NDC,
frontier peak and ``degraded``, distances within float32 rounding of each
other (NumPy's reduction order is not reproducible in a C loop).

:class:`BatchSearchEngine` advances the same algorithm for a *block* of
queries in lock step: every round each active query expands its closest
unexpanded candidate, and all frontier neighbors across the block are scored
in one :meth:`~repro.distances.DistanceComputer.block_to_queries` call.
Candidate/result state lives in per-block NumPy arrays instead of Python
heaps, which is where the batch speedup comes from; the results are
bit-identical to :func:`greedy_search` (see the engine docstring).  The
lock-step rounds have a fixed cost per round, so blocks too small to
amortize it (``LOCKSTEP_MIN_ROWS``) are run row by row on the sequential
loop instead.

Tombstoned nodes still *navigate* (lazy deletion, Sec. 5.5.2) but are
excluded from the result heap.
"""

from __future__ import annotations

import dataclasses
import heapq
import time

import numpy as np

from repro.distances import DistanceComputer
from repro.graphs import native
from repro.obs import OBS, SECONDS_BUCKETS

_SEARCH_QUERIES = OBS.counter(
    "search_queries", "sequential greedy searches served")
_SEARCH_HOPS = OBS.histogram(
    "search_hops", "hops per sequential greedy search")
_SEARCH_NDC = OBS.histogram(
    "search_ndc", "distance computations per sequential greedy search")
_SEARCH_FRONTIER = OBS.histogram(
    "search_frontier_peak", "peak candidate-pool size per sequential search")
_SEARCH_SECONDS = OBS.histogram(
    "search_seconds", "sequential search latency in seconds",
    buckets=SECONDS_BUCKETS)
_BATCH_BLOCKS = OBS.counter(
    "batch_blocks", "lock-step engine blocks executed")
_BATCH_QUERIES = OBS.counter(
    "batch_queries", "queries served through the batch engine")
_BATCH_OCCUPANCY = OBS.histogram(
    "batch_block_occupancy", "queries per engine block",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
_BATCH_ROUNDS = OBS.histogram(
    "batch_block_rounds", "lock-step rounds per engine block")
_BATCH_NDC = OBS.histogram(
    "batch_block_ndc", "distance computations per engine block")
_BATCH_SECONDS = OBS.histogram(
    "batch_block_seconds", "engine block latency in seconds",
    buckets=SECONDS_BUCKETS)

_NATIVE_QUERIES = OBS.counter(
    "search_native_queries", "searches run by the native executor")
_NATIVE_FALLBACKS = OBS.counter(
    "search_native_fallbacks",
    "searches that ran on the reference executor instead of the native one")
OBS.gauge_fn("search_native_enabled", lambda: float(native.enabled()),
             "1 when the native traversal executor is loaded in this process")
#: Why a search fell back, one counter each: the library is not loaded (no
#: compiler, compile error, REPRO_NO_NATIVE); the scorer or the graph has no
#: native description; the kernel refused the input (id out of range, a
#: duplicate edge).
_NATIVE_FALLBACK_REASONS = {
    reason: OBS.counter(f"search_native_fallback_{reason}", text)
    for reason, text in (
        ("unavailable", "fallbacks because the native library is not loaded"),
        ("scorer", "fallbacks because the scorer has no native description"),
        ("graph", "fallbacks because the graph has no native description"),
        ("rejected", "fallbacks because the native kernel refused the input"),
    )}

#: Without the native executor, blocks with fewer rows than this run row by
#: row on :func:`beam_search` instead of in lock step (width-1 exact engines
#: only): the lock-step
#: rounds cost ~100 NumPy calls whatever the block holds, so a lone query
#: pays 5x the sequential search, and the two meet at 12 rows — measured on
#: 2400 rows/ef 60 and on 1200 rows/ef 40 (docs/performance.md).
LOCKSTEP_MIN_ROWS = 12

_INT32_MAX = int(np.iinfo(np.int32).max)


class VisitedTable:
    """O(1)-reset visited marks via version stamping.

    A fresh boolean array per query would cost O(n) per search; instead an
    int32 stamp array is compared against a per-search version counter.
    """

    def __init__(self, n: int):
        self._stamps = np.zeros(n, dtype=np.int32)
        self._version = 0

    def next_epoch(self) -> None:
        """Start a new search; previously set marks become invisible."""
        self.reserve(1)

    def reserve(self, count: int) -> int:
        """Claim ``count`` consecutive fresh versions; returns the first.

        A native block marks row ``r`` with version ``first + r``; the last
        one claimed is the current version afterwards, so Python marks and
        C marks interoperate.  Stamps are wiped when the int32 counter
        would run out.
        """
        if self._version + count >= _INT32_MAX:
            self._stamps[:] = 0
            self._version = 0
        first = self._version + 1
        self._version += count
        return first

    def grow(self, n: int) -> None:
        """Extend capacity to ``n`` nodes."""
        if n > self._stamps.shape[0]:
            extra = np.zeros(n - self._stamps.shape[0], dtype=np.int32)
            self._stamps = np.concatenate([self._stamps, extra])

    def filter_unvisited(self, ids: np.ndarray) -> np.ndarray:
        """Return the subset of ``ids`` not yet visited, marking them visited."""
        mask = self._stamps[ids] != self._version
        fresh = ids[mask]
        self._stamps[fresh] = self._version
        return fresh

    def mark(self, i: int) -> None:
        self._stamps[i] = self._version

    def mark_many(self, ids: np.ndarray) -> None:
        """Mark all ``ids`` visited in one scatter (no per-id loop)."""
        self._stamps[ids] = self._version

    def is_visited(self, i: int) -> bool:
        return self._stamps[i] == self._version


@dataclasses.dataclass
class SearchResult:
    """Outcome of one greedy search.

    ``ids``/``distances`` are the top-k results sorted ascending by distance.
    ``visited_ids``/``visited_distances`` are populated only when the search
    was asked to collect them (used by RFix's candidate expansion and by the
    approximate-NN preprocessing mode) and cover every node whose distance to
    the query was computed.  ``degraded`` is set when a deadline budget
    expired before natural termination: the results are the best found so
    far, not the full-effort answer.  ``executor`` names what ran the
    traversal: ``"native"`` (``_beam.c``) or ``"reference"`` (the Python
    loops).
    """

    ids: np.ndarray
    distances: np.ndarray
    n_hops: int = 0
    visited_ids: np.ndarray | None = None
    visited_distances: np.ndarray | None = None
    frontier_peak: int = 0
    degraded: bool = False
    executor: str = "reference"


def pad_results(results: list[SearchResult],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-query results into ``(ids, distances)`` of shape (nq, k).

    Rows with fewer than ``k`` results are padded with id -1 / distance inf
    — the array form every ``search_many`` returns.
    """
    ids = np.full((len(results), k), -1, dtype=np.int64)
    distances = np.full((len(results), k), np.inf)
    for i, result in enumerate(results):
        m = min(k, len(result.ids))
        ids[i, :m] = result.ids[:m]
        distances[i, :m] = result.distances[:m]
    return ids, distances


def unique_entries(entry_points) -> np.ndarray:
    """Sorted, de-duplicated int64 entry ids; at least one is required."""
    entry_ids = np.asarray(list(entry_points), dtype=np.int64)
    if entry_ids.size > 1:  # the usual lone entry is already both
        entry_ids = np.unique(entry_ids)
    if entry_ids.size == 0:
        raise ValueError("at least one entry point is required")
    return entry_ids


def beam_search(score, neighbors_fn, entry_ids: np.ndarray, ef: int,
                visited: VisitedTable, excluded: set[int] | None = None,
                deadline: float | None = None, collect: bool = False):
    """The one sequential beam loop (paper Algorithm 1) behind every scorer.

    ``score(ids) -> distances`` is all the loop knows about the metric:
    :func:`greedy_search` passes the exact kernel, the PQ searcher its ADC
    lookup.  ``entry_ids`` come from :func:`unique_entries`; ``visited``
    must already cover the graph (a new epoch is started here).  Returns
    ``(results, n_hops, frontier_peak, degraded, scored)``: ``results`` is
    the max-heap of ``(-distance, id)`` holding the ``ef`` best non-excluded
    nodes, ``scored`` the ``(ids, distances)`` arrays of every node
    evaluated, in evaluation order, when ``collect`` is set (else ``None``).

    Per-hop interpreter work is what a query costs here (the kernel is a
    few percent of it), so whatever does not change within a search is
    hoisted out of the loop: bound methods, and the result heap's
    ``full``/``bound`` state, refreshed only where the heap changes.
    """
    push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    filter_unvisited = visited.filter_unvisited
    clock = time.perf_counter
    visited.next_epoch()
    visited.mark_many(entry_ids)
    entry_d = score(entry_ids)
    if collect:
        scored_ids, scored_d = [entry_ids], [entry_d]

    candidates: list[tuple[float, int]] = []  # min-heap on distance
    results: list[tuple[float, int]] = []  # max-heap via negated distance
    for node, dist in zip(entry_ids.tolist(), entry_d.tolist()):
        push(candidates, (dist, node))
        if excluded is None or node not in excluded:
            push(results, (-dist, node))
    while len(results) > ef:
        pop(results)
    full = len(results) >= ef
    bound = -results[0][0] if full else 0.0

    n_hops = 0
    degraded = False
    frontier_peak = len(candidates)
    while candidates:
        if deadline is not None and clock() > deadline:
            degraded = True
            break
        if len(candidates) > frontier_peak:
            frontier_peak = len(candidates)
        dist_u, u = pop(candidates)
        if full and dist_u > bound:
            break
        n_hops += 1
        neigh = neighbors_fn(u)
        if neigh.size == 0:
            continue
        fresh = filter_unvisited(neigh)
        if fresh.size == 0:
            continue
        dists = score(fresh)
        if collect:
            scored_ids.append(fresh)
            scored_d.append(dists)
        # The bound only tightens while pushing, so the per-node test drops
        # exactly what a vectorized pre-filter against the bound at loop
        # entry would, and costs less than building the mask.
        for node, dist in zip(fresh.tolist(), dists.tolist()):
            if full:
                if dist >= bound:
                    continue
                push(candidates, (dist, node))
                if excluded is None or node not in excluded:
                    pushpop(results, (-dist, node))
                    bound = -results[0][0]
            else:
                push(candidates, (dist, node))
                if excluded is None or node not in excluded:
                    push(results, (-dist, node))
                    if len(results) >= ef:
                        full = True
                        bound = -results[0][0]
    scored = ((np.concatenate(scored_ids), np.concatenate(scored_d))
              if collect else None)
    return results, n_hops, frontier_peak, degraded, scored


def _spec(obj, name: str, *args):
    """``obj.<name>(*args)`` with the method looked up on ``obj``'s exact
    type, None when the type has none.  A proxy that forwards attribute
    access (the benchmark's kernel probe) or a plain ``neighbors_fn``
    callable therefore has no native description and lands on the reference
    executor, whatever it wraps."""
    method = getattr(type(obj), name, None)
    return None if method is None else method(obj, *args)


def native_search(scorer_owner, graph_owner, queries: np.ndarray,
                  entry_lists: list[np.ndarray], k: int, ef: int,
                  beam_width: int, visited: VisitedTable,
                  excluded: set[int] | None, deadline: float | None,
                  collect: bool, scorer_args: tuple = (),
                  ) -> tuple[list[SearchResult], int] | None:
    """Run a block of searches on the native executor, if it can.

    The single place an executor is chosen.  ``scorer_owner`` and
    ``graph_owner`` are whatever the caller scores and walks with; they
    are asked for ``native_scorer(*scorer_args, queries)`` and
    ``native_graph()``.  Returns ``(results, distances_computed)`` — the
    caller owns its NDC counter — or None (with the reason counted) when
    the reference executor has to run.
    ``entry_lists`` holds one :func:`unique_entries` array per query row
    (the same object repeated when the rows share their entries).
    """
    n_queries = len(entry_lists)
    if not native.enabled():
        reason = "unavailable"
    elif (graph := _spec(graph_owner, "native_graph")) is None:
        # Asked first: a mutable store's bound ``neighbors`` (construction,
        # ``fix_query``) answers with one getattr, before any scorer is built.
        reason = "graph"
    elif (scorer := _spec(scorer_owner, "native_scorer", *scorer_args,
                          queries)) is None:
        reason = "scorer"
    else:
        entries, offsets = entry_lists[0], None
        if any(e is not entries for e in entry_lists):
            offsets = np.zeros(n_queries + 1, dtype=np.int64)
            np.cumsum([e.shape[0] for e in entry_lists], out=offsets[1:])
            entries = np.concatenate(entry_lists)
        visited.grow(scorer.rows.shape[0])
        rows = native.beam_block(
            graph, scorer, entries, offsets, k, ef, beam_width,
            visited._stamps, visited.reserve(n_queries),
            graph.mask_for(excluded), deadline, collect)
        reason = "rejected" if rows is None else None
    if reason is not None:
        if OBS.enabled:
            _NATIVE_FALLBACKS.inc()
            _NATIVE_FALLBACK_REASONS[reason].inc()
        return None
    _NATIVE_QUERIES.inc(n_queries)
    ndc = 0
    results = []
    for ids, distances, n_hops, frontier_peak, row_ndc, degraded, v_ids, v_d \
            in rows:
        ndc += row_ndc
        results.append(SearchResult(
            ids=ids, distances=distances, n_hops=n_hops,
            visited_ids=v_ids, visited_distances=v_d,
            frontier_peak=frontier_peak, degraded=degraded,
            executor="native"))
    return results, ndc


def _search_row(dc, q: np.ndarray, neighbors_fn, entry_ids: np.ndarray,
                k: int, ef: int, visited: VisitedTable,
                excluded: set[int] | None, deadline: float | None,
                collect_visited: bool) -> SearchResult:
    """One exact-scored search as a :class:`SearchResult`, on whichever
    executor :func:`native_search` picks.

    Shared by :func:`greedy_search` and the batch engine's row-by-row
    route, which makes the two bit-identical by construction.
    """
    found = native_search(dc, neighbors_fn, q[None, :], [entry_ids], k, ef, 1,
                          visited, excluded, deadline, collect_visited)
    if found is not None:
        dc.ndc += found[1]
        return found[0][0]
    return _reference_row(dc, q, neighbors_fn, entry_ids, k, ef, visited,
                          excluded, deadline, collect_visited)


def _reference_row(dc, q: np.ndarray, neighbors_fn, entry_ids: np.ndarray,
                   k: int, ef: int, visited: VisitedTable,
                   excluded: set[int] | None, deadline: float | None,
                   collect_visited: bool) -> SearchResult:
    """One exact-scored :func:`beam_search` as a :class:`SearchResult`."""
    to_query = dc.to_query
    results, n_hops, frontier_peak, degraded, scored = beam_search(
        lambda ids: to_query(ids, q), neighbors_fn, entry_ids, ef, visited,
        excluded, deadline, collect_visited)
    ordered = sorted((-d, node) for d, node in results)[:k]
    result = SearchResult(
        ids=np.array([node for _, node in ordered], dtype=np.int64),
        distances=np.array([d for d, _ in ordered], dtype=np.float64),
        n_hops=n_hops, frontier_peak=frontier_peak, degraded=degraded)
    if collect_visited:
        result.visited_ids, result.visited_distances = scored
    return result


def greedy_search(
    dc: DistanceComputer,
    neighbors_fn,
    entry_points,
    query: np.ndarray,
    k: int,
    ef: int,
    visited: VisitedTable | None = None,
    excluded: set[int] | None = None,
    collect_visited: bool = False,
    prepared: bool = False,
    deadline: float | None = None,
) -> SearchResult:
    """Beam search over a directed graph (paper Algorithm 1).

    Parameters
    ----------
    dc:
        Distance computer over the base vectors (counts NDC).
    neighbors_fn:
        ``node_id -> np.ndarray`` of out-neighbors.
    entry_points:
        Iterable of starting node ids.
    k, ef:
        Result count and search list size; ``ef`` is clamped up to ``k``.
    visited:
        Reusable :class:`VisitedTable`; allocated fresh when omitted.
    excluded:
        Node ids barred from the result set (tombstones); they still expand.
    collect_visited:
        Also return every (id, distance) pair evaluated.
    prepared:
        Set True when ``query`` already went through ``dc.prepare_query``.
    deadline:
        Absolute ``time.perf_counter()`` budget; when it passes, the search
        stops expanding and returns best-so-far results flagged
        ``degraded`` (graceful degradation under load).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    telemetry = OBS.enabled
    if telemetry:
        t0 = time.perf_counter()
        ndc0 = dc.ndc
    q = query if prepared else dc.prepare_query(query)
    if visited is None:
        visited = VisitedTable(dc.size)
    # A reused table may predate incremental insertion (dc.append +
    # adjacency.grow); without this, stamping new node ids raises IndexError.
    visited.grow(dc.size)
    result = _search_row(dc, q, neighbors_fn, unique_entries(entry_points),
                         k, max(ef, k), visited, excluded, deadline,
                         collect_visited)
    if telemetry:
        _SEARCH_QUERIES.inc()
        _SEARCH_HOPS.observe(result.n_hops)
        _SEARCH_FRONTIER.observe(result.frontier_peak)
        _SEARCH_NDC.observe(dc.ndc - ndc0)
        _SEARCH_SECONDS.observe(time.perf_counter() - t0)
    return result


class BatchSearchEngine:
    """Batched beam search over one graph.

    Runs Algorithm 1 for a block of up to ``batch_size`` queries.  Per
    block it resolves the graph snapshot, the excluded set, the prepared
    queries and the entries once, then hands the block to
    :func:`native_search` — one C call that walks the rows one after the
    other, at any block size and ``beam_width``.  What follows describes
    the *reference executor* of a block, which runs when the native one
    cannot (no compiler, a mutable graph, a proxy scorer) and is what the
    native one is differentially tested against.

    **Lock-step rounds.**  Each round every active query expands its closest
    unexpanded candidate; the unvisited frontier neighbors of the whole
    block are gathered and scored in a single
    :meth:`~repro.distances.DistanceComputer.block_to_queries` call, then
    scattered back into per-query candidate/result pools held as block-wide
    NumPy arrays.  Visited marks use one version-stamped table over the
    flattened ``(block_row, node)`` space, reused (and regrown on demand)
    across calls instead of being allocated per query — memory cost is
    ``batch_size * n_nodes`` int32 stamps.

    **Small blocks.**  Each lock-step round costs the same ~100 NumPy
    calls whether the block holds one row or sixty-four.  On the reference
    executor a block of fewer than ``LOCKSTEP_MIN_ROWS`` rows therefore
    runs row by row on :func:`beam_search` when ``beam_width == 1`` and
    the scorer is exact —
    the configuration whose contract is the equivalence below, so the
    route cannot change a result.  ``graph_fn``, ``excluded_fn`` and entry
    resolution still run once per block and the ``batch_*`` metrics count
    the block whichever route ran it.  (A deadline that expires mid-block
    leaves later rows of such a block with their entry points only — the
    native executor's semantics at every block size, see
    :meth:`search_batch`.)

    **Equivalence.** On one executor the engine returns the same (ids,
    distances, NDC) as running :func:`greedy_search` per query — natively
    because a single query *is* a block of one, and on the reference
    executor because candidate selection uses the
    same (distance, id) order, expansion stops at the same bound, the
    frontier is scored before bound-pruning exactly as the sequential code
    does, and the distance kernel shares its per-row reduction with
    ``to_query``.  The only permitted divergence is the ordering of results
    whose distances are *exactly* equal at the pruning bound, which cannot
    occur for generic float workloads.

    Parameters
    ----------
    dc:
        Distance computer over the base vectors (counts NDC).
    neighbors_fn:
        ``node_id -> np.ndarray`` of out-neighbors.
    entry_points_fn:
        ``prepared_query -> iterable of entry node ids``.
    excluded_fn:
        Nullary callable returning the current excluded set (tombstones) or
        None; evaluated once per block so lazy deletions are honored.
    graph_fn:
        Nullary callable returning a frozen
        :class:`~repro.graphs.csr.CSRGraphView` (anything with
        ``neighbors_block``) or None; evaluated once per block.  When a view
        is returned, the whole frontier is gathered with one bulk CSR call
        instead of one ``neighbors_fn`` call per expanded node; when None
        the engine walks ``neighbors_fn`` as before.  Neighbor order per
        node is identical on either path, so results are unaffected.
    batch_size:
        Queries advanced together per block.
    beam_width:
        Candidates expanded per query per round.  The default 1 preserves
        the sequential equivalence above exactly.  Widths above 1 expand the
        ``beam_width`` closest in-bound candidates each round, which divides
        the number of lock-step rounds (where the per-round Python overhead
        lives) at the cost of some speculative scoring; the scored set is a
        superset of the width-1 set, so with ``collect_visited`` re-ranking
        the wider beam can only help recall.  Termination is unchanged: a
        row finishes when its best unexpanded candidate exceeds the bound.
    """

    def __init__(self, dc, neighbors_fn, entry_points_fn, excluded_fn=None,
                 batch_size: int = 32, graph_fn=None, beam_width: int = 1,
                 entry_points_block_fn=None):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if beam_width <= 0:
            raise ValueError(f"beam_width must be positive, got {beam_width}")
        self.dc = dc
        self.neighbors_fn = neighbors_fn
        self.entry_points_fn = entry_points_fn
        # Optional fast path for query-independent entry strategies: called
        # once per block (with the prepared query matrix) instead of once
        # per query, returning entries shared by every row.
        self.entry_points_block_fn = entry_points_block_fn
        self.excluded_fn = excluded_fn
        self.graph_fn = graph_fn
        self.batch_size = batch_size
        self.beam_width = beam_width
        self._visited = VisitedTable(1)
        # Scratch for wide-beam intra-round dedup (see _search_block); holds
        # last-writer positions, read back immediately, so no epoch needed.
        self._dedup = np.empty(0, dtype=np.int32)

    def search_batch(self, queries: np.ndarray, k: int, ef: int,
                     deadline: float | None = None,
                     collect_visited: bool = False,
                     prepared: bool = False) -> list[SearchResult]:
        """Search all ``queries``; returns one :class:`SearchResult` per row.

        ``deadline`` (absolute ``time.perf_counter()``) is one budget for
        the whole batch; a row it cut short is flagged ``degraded``.  The
        native executor walks the rows one after the other against it, at
        every block size: rows finished before it passes are full-effort,
        the row it interrupts returns its best so far, and every row after
        that — in this block and in later ones — returns only its scored
        entry points.  (``degraded`` is therefore monotone over the batch.)
        The lock-step rounds check it once per round and finalize all
        still-active rows of the block best-so-far together; rows of later
        blocks get their entry points only, as natively.
        ``collect_visited`` additionally records every (node, distance)
        scored for each query — the batched counterpart of
        :func:`greedy_search`'s flag, and what the compressed path re-ranks
        from (the visited set is a strict superset of the ef-pool, so an
        exact re-rank over it recovers recall the approximate ordering
        lost, at zero extra traversal cost).  ``prepared`` marks the rows as
        already passed through ``dc.prepare_query`` (the caller built the
        matrix for its own use, e.g. ADC tables), skipping a second
        per-row preparation pass.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if prepared:
            queries = np.atleast_2d(np.asarray(queries))
        else:
            queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        out: list[SearchResult] = []
        for start in range(0, queries.shape[0], self.batch_size):
            out.extend(self._run_block(queries[start:start + self.batch_size],
                                       k, max(ef, k), deadline,
                                       collect_visited, prepared))
        return out

    def _run_block(self, block: np.ndarray, k: int, ef: int,
                   deadline: float | None, collect_visited: bool,
                   prepared: bool) -> list[SearchResult]:
        """One block: per-block state, then whichever traversal fits its size.

        The graph snapshot (one epoch pin), the excluded set, query
        preparation, entry resolution and the ``batch_*`` telemetry record
        are per block on either route; only the traversal differs.
        """
        dc = self.dc
        n_queries = block.shape[0]
        telemetry = OBS.enabled
        if telemetry:
            t0 = time.perf_counter()
            ndc0 = dc.ndc
        # Graph snapshot for this block, when the provider has one.  Must be
        # resolved *before* the excluded set: an epoch-pinning graph_fn (see
        # repro.serving.ServingSearcher) establishes the block's pinned view
        # here, and its excluded_fn reads tombstones from that same pin — the
        # other order could pair an old exclusion set with a newer graph.
        graph = self.graph_fn() if self.graph_fn is not None else None
        if self.excluded_fn is not None:
            excluded = self.excluded_fn()
        elif graph is not None and hasattr(graph, "excluded"):
            excluded = graph.excluded()
        else:
            excluded = None
        if prepared:
            qmat = np.asarray(block)
        else:
            prepare_queries = getattr(dc, "prepare_queries", None)
            if prepare_queries is not None:
                qmat = prepare_queries(block)
            else:
                qmat = np.array([dc.prepare_query(q) for q in block])
        # Block-scoped scoring state: an ADC computer (see
        # repro.quantization.adc.ADCComputer) precomputes this block's
        # per-query lookup tables here, after which every frontier gather is
        # a table fancy-index instead of a full-precision kernel.  Runs
        # before ``dc.size`` is read: the hook may sync freshly appended
        # rows into the code matrix.
        begin_block = getattr(dc, "begin_block", None)
        if begin_block is not None:
            begin_block(qmat)
        if self.entry_points_block_fn is not None:
            entry_lists = [unique_entries(
                self.entry_points_block_fn(qmat))] * n_queries
        else:
            entry_lists = [unique_entries(self.entry_points_fn(q))
                           for q in qmat]

        # The native executor takes a block of any size or width in one
        # call.  Without it: row by row only where the engine's contract is
        # bit-identity with the sequential search — width-1 beam, exact
        # scorer (an ADC computer announces itself with ``begin_block``) —
        # else the lock-step rounds.
        neighbors_fn = graph if graph is not None else self.neighbors_fn
        found = native_search(dc, neighbors_fn, qmat, entry_lists, k, ef,
                              self.beam_width, self._visited, excluded,
                              deadline, collect_visited)
        if found is not None:
            final, ndc = found
            dc.ndc += ndc
            rounds = max(r.n_hops for r in final)
        elif (n_queries < LOCKSTEP_MIN_ROWS and self.beam_width == 1
                and begin_block is None):
            self._visited.grow(dc.size)
            final = [_reference_row(dc, q, neighbors_fn, entries, k, ef,
                                    self._visited, excluded, deadline,
                                    collect_visited)
                     for q, entries in zip(qmat, entry_lists)]
            rounds = max(r.n_hops for r in final)
        else:
            final, rounds = self._search_block(graph, excluded, qmat,
                                               entry_lists, k, ef, deadline,
                                               collect_visited)
        if telemetry:
            _BATCH_BLOCKS.inc()
            _BATCH_QUERIES.inc(n_queries)
            _BATCH_OCCUPANCY.observe(n_queries)
            _BATCH_ROUNDS.observe(rounds)
            _BATCH_NDC.observe(dc.ndc - ndc0)
            _BATCH_SECONDS.observe(time.perf_counter() - t0)
        return final

    def _search_block(self, graph, excluded: set[int] | None,
                      qmat: np.ndarray, entry_lists: list[np.ndarray], k: int,
                      ef: int, deadline: float | None, collect_visited: bool,
                      ) -> tuple[list[SearchResult], int]:
        """The lock-step rounds over one opened block; ``(results, rounds)``."""
        dc = self.dc
        n_queries = qmat.shape[0]
        # Exclusion test is on the per-hop hot path: an O(1) mask lookup
        # beats np.isin's sort+searchsorted by an order of magnitude.  The
        # trailing always-False sentinel absorbs (via clip) any node id
        # beyond the mask, e.g. one inserted after the mask was built.
        if excluded:
            excl_arr = np.fromiter(excluded, dtype=np.int64,
                                   count=len(excluded))
            excl_mask = np.zeros(int(excl_arr.max()) + 2, dtype=bool)
            excl_mask[excl_arr] = True
        else:
            excl_mask = None
        n = dc.size

        visited = self._visited
        visited.grow(n_queries * n)
        visited.next_epoch()

        # Block state.  Rows are physically compacted as queries finish;
        # ``alive[row]`` maps back to the original block position (which also
        # keys the visited-table offsets and the prepared-query matrix).
        # Result pools are *partitioned*, not sorted: column ef-1 always holds
        # the ef-th smallest distance (the pruning bound); finish() sorts.
        alive = np.arange(n_queries, dtype=np.int64)
        res_d = np.full((n_queries, ef), np.inf)
        res_id = np.full((n_queries, ef), -1, dtype=np.int64)
        cap = ef + 64
        pool_d = np.full((n_queries, cap), np.inf)        # unexpanded candidates
        pool_id = np.full((n_queries, cap), -1, dtype=np.int64)
        pool_fill = np.zeros(n_queries, dtype=np.int64)   # next free column
        hops = np.zeros(n_queries, dtype=np.int64)
        final: list[SearchResult | None] = [None] * n_queries

        def merge_and_admit(rows, nodes, dists):
            """Fold newly scored (row, node, dist) triples into both pools.

            Mirrors the sequential push loop: results keep the ef best
            non-excluded nodes; the candidate pool admits nodes strictly
            inside the bound the row had *before* this batch (extra
            candidates the evolving sequential bound would have skipped are
            provably never expanded, so outputs are unaffected).
            """
            nonlocal pool_d, pool_id, cap
            a_rows = alive.shape[0]
            pre_bound = res_d[rows, ef - 1]
            # Distances are finite (validated data), so < inf always passes:
            # rows whose result pool is not yet full admit everything.
            admit = dists < pre_bound

            # Result pools: top-ef of old ∪ new non-excluded.
            if excl_mask is not None:
                relevant = admit & ~excl_mask[
                    np.minimum(nodes, excl_mask.size - 1)]
            else:
                relevant = admit
            if relevant.any():
                r_counts = np.bincount(rows[relevant], minlength=a_rows)
                m_rows = np.flatnonzero(r_counts)
                m_counts = r_counts[m_rows]
                m_starts = np.concatenate(([0], np.cumsum(m_counts)[:-1]))
                m_ranks = (np.arange(int(relevant.sum()))
                           - np.repeat(m_starts, m_counts))
                width = int(m_counts.max())
                row_of = np.searchsorted(m_rows, rows[relevant])
                new_d = np.full((m_rows.shape[0], width), np.inf)
                new_id = np.full((m_rows.shape[0], width), -1, dtype=np.int64)
                new_d[row_of, m_ranks] = dists[relevant]
                new_id[row_of, m_ranks] = nodes[relevant]
                cat_d = np.concatenate((res_d[m_rows], new_d), axis=1)
                cat_id = np.concatenate((res_id[m_rows], new_id), axis=1)
                order = np.argpartition(cat_d, ef - 1, axis=1)[:, :ef]
                take = np.arange(m_rows.shape[0])[:, None]
                res_d[m_rows] = cat_d[take, order]
                res_id[m_rows] = cat_id[take, order]

            # Candidate pool admission (bound taken before the merge above).
            if not admit.any():
                return
            p_rows, p_nodes, p_d = rows[admit], nodes[admit], dists[admit]
            p_counts = np.bincount(p_rows, minlength=a_rows)
            need = int((pool_fill + p_counts).max())
            if need > cap:
                pool_d, pool_id = self._compact_pool(pool_d, pool_id,
                                                     res_d[:, ef - 1])
                pool_fill[:] = (pool_id >= 0).sum(axis=1)
                need = int((pool_fill + p_counts).max())
                if need > cap:
                    grow = max(need, 2 * cap) - cap
                    pool_d = np.pad(pool_d, ((0, 0), (0, grow)),
                                    constant_values=np.inf)
                    pool_id = np.pad(pool_id, ((0, 0), (0, grow)),
                                     constant_values=-1)
                    cap = pool_d.shape[1]
            pu = np.flatnonzero(p_counts)
            pc = p_counts[pu]
            p_starts = np.concatenate(([0], np.cumsum(pc)[:-1]))
            p_ranks = np.arange(p_rows.shape[0]) - np.repeat(p_starts, pc)
            cols = pool_fill[p_rows] + p_ranks
            pool_d[p_rows, cols] = p_d
            pool_id[p_rows, cols] = p_nodes
            pool_fill[pu] += pc

        def finish(rows, degraded: bool = False):
            """Finalize ``rows`` (current indices) and drop them from state."""
            nonlocal alive, res_d, res_id, pool_d, pool_id, pool_fill, hops
            # Batched equivalent of each row's mask-then-lexsort((ids, d)):
            # stable-sort columns by id, then stably by distance.  Invalid
            # slots (id -1, distance inf) sink to the end of the distance
            # sort — real distances are finite — so a row's first n_valid
            # columns are exactly its per-row lexsort output.
            sub_id = res_id[rows]
            o1 = np.argsort(sub_id, axis=1, kind="stable")
            d1 = np.take_along_axis(res_d[rows], o1, axis=1)
            i1 = np.take_along_axis(sub_id, o1, axis=1)
            o2 = np.argsort(d1, axis=1, kind="stable")[:, :k]
            d_sorted = np.take_along_axis(d1, o2, axis=1)
            id_sorted = np.take_along_axis(i1, o2, axis=1)
            n_valid = np.minimum((sub_id >= 0).sum(axis=1), k)
            group_hops = hops[rows]
            for j, r in enumerate(rows.tolist()):
                m = int(n_valid[j])
                final[int(alive[r])] = SearchResult(
                    ids=id_sorted[j, :m], distances=d_sorted[j, :m],
                    n_hops=int(group_hops[j]), degraded=degraded)
            keep = np.ones(alive.shape[0], dtype=bool)
            keep[rows] = False
            alive, hops, pool_fill = alive[keep], hops[keep], pool_fill[keep]
            res_d, res_id = res_d[keep], res_id[keep]
            pool_d, pool_id = pool_d[keep], pool_id[keep]

        # Entry points: mark visited, score in one call, seed both pools.
        e_counts = np.array([e.size for e in entry_lists], dtype=np.int64)
        e_rows = np.repeat(np.arange(n_queries, dtype=np.int64), e_counts)
        e_nodes = np.concatenate(entry_lists)
        visited.mark_many(e_rows * n + e_nodes)
        e_dists = dc.block_to_queries(e_nodes, qmat, e_rows).astype(
            np.float64, copy=False)
        # Collection buffers hold original block positions (e_rows and
        # fr_orig below), so row compaction in finish() never remaps them.
        coll_rows = [e_rows] if collect_visited else None
        coll_nodes = [e_nodes] if collect_visited else None
        coll_d = [e_dists] if collect_visited else None
        merge_and_admit(e_rows, e_nodes, e_dists)

        int64_max = np.iinfo(np.int64).max
        rounds = 0
        while alive.shape[0]:
            if deadline is not None and time.perf_counter() > deadline:
                # Budget spent: every still-active row returns best-so-far.
                finish(np.arange(alive.shape[0]), degraded=True)
                break
            rounds += 1
            sel_cols = np.argmin(pool_d, axis=1)
            row_range = np.arange(alive.shape[0])
            best = pool_d[row_range, sel_cols]
            bound = res_d[:, ef - 1]
            done = np.isinf(best) | (best > bound)
            if done.any():
                finish(np.flatnonzero(done))
                if not alive.shape[0]:
                    break
                keep = ~done
                sel_cols, best = sel_cols[keep], best[keep]
                row_range = np.arange(alive.shape[0])
            if self.beam_width == 1:
                # Expand the (distance, id)-minimal unexpanded candidate per
                # row.  argmin picks the first minimal *column*; the
                # sequential heap pops the smallest id among distance ties,
                # so rows with more than one minimal entry are re-selected
                # by id.
                sel_nodes = pool_id[row_range, sel_cols]
                ties = (pool_d == best[:, None]).sum(axis=1) > 1
                if ties.any():
                    multi = np.flatnonzero(ties)
                    masked = np.where(pool_d[multi] == best[multi, None],
                                      pool_id[multi], int64_max)
                    sel_nodes[multi] = masked.min(axis=1)
                    sel_cols[multi] = masked.argmin(axis=1)
                pool_d[row_range, sel_cols] = np.inf
                pool_id[row_range, sel_cols] = -1
                sel_rows = row_range
                hops += 1
            else:
                # Wide beam: expand up to beam_width in-bound candidates per
                # row in one round.  The done-check above guarantees each
                # alive row has at least one (its best ≤ bound).
                W = min(self.beam_width, cap)
                bound = res_d[:, ef - 1]
                part = np.argpartition(pool_d, W - 1, axis=1)[:, :W]
                cand_d = pool_d[row_range[:, None], part]
                # Finiteness matters: an unfilled result pool has bound inf,
                # and inf <= inf would select empty (-1) pool slots.
                valid = np.isfinite(cand_d) & (cand_d <= bound[:, None])
                n_sel = valid.sum(axis=1)
                sel_rows = np.repeat(row_range, n_sel)
                sel_cols = part[valid]              # row-major, matches repeat
                sel_nodes = pool_id[sel_rows, sel_cols]
                pool_d[sel_rows, sel_cols] = np.inf
                pool_id[sel_rows, sel_cols] = -1
                hops += n_sel

            if graph is not None:
                flat_nodes, counts = graph.neighbors_block(sel_nodes)
                if not flat_nodes.size:
                    continue
            else:
                neigh = [self.neighbors_fn(int(u)) for u in sel_nodes]
                counts = np.fromiter((a.size for a in neigh), dtype=np.int64,
                                     count=len(neigh))
                if not counts.sum():
                    continue
                flat_nodes = np.concatenate(neigh)
            flat_rows = np.repeat(sel_rows, counts)
            fresh = visited.filter_unvisited(alive[flat_rows] * n + flat_nodes)
            if not fresh.size:
                continue
            if self.beam_width > 1 and sel_rows.shape[0] > alive.shape[0]:
                # Two expansions of the same row can share a neighbor within
                # one round; filter_unvisited marks after masking, so such
                # duplicates survive it and must be collapsed.  Scatter each
                # key's position into the scratch buffer (last writer wins)
                # and keep only positions that read back — O(n), no sort.
                if self._dedup.shape[0] < n_queries * n:
                    self._dedup = np.empty(n_queries * n, dtype=np.int32)
                pos = np.arange(fresh.shape[0], dtype=np.int32)
                self._dedup[fresh] = pos
                keep_f = self._dedup[fresh] == pos
                if not keep_f.all():
                    fresh = fresh[keep_f]
            fr_orig = fresh // n                      # original block position
            fr_nodes = fresh - fr_orig * n
            fr_rows = np.searchsorted(alive, fr_orig)  # alive is sorted
            dists = dc.block_to_queries(fr_nodes, qmat, fr_orig).astype(
                np.float64, copy=False)
            if collect_visited:
                coll_rows.append(fr_orig)
                coll_nodes.append(fr_nodes)
                coll_d.append(dists)
            merge_and_admit(fr_rows, fr_nodes, dists)

        if collect_visited:
            rows_all = np.concatenate(coll_rows)
            order = np.argsort(rows_all, kind="stable")
            nodes_all = np.concatenate(coll_nodes)[order]
            d_all = np.concatenate(coll_d)[order]
            offsets = np.concatenate(
                ([0], np.cumsum(np.bincount(rows_all, minlength=n_queries))))
            for i in range(n_queries):
                lo, hi = int(offsets[i]), int(offsets[i + 1])
                final[i].visited_ids = nodes_all[lo:hi]
                final[i].visited_distances = d_all[lo:hi]

        return final, rounds  # type: ignore[return-value]

    @staticmethod
    def _compact_pool(pool_d, pool_id, bound):
        """Left-align live pool entries, pruning those beyond the bound.

        Entries strictly outside the current result bound can never be
        expanded (the bound only shrinks), so dropping them preserves the
        sequential semantics while keeping the pool narrow.
        """
        valid = (pool_id >= 0) & (pool_d <= bound[:, None])
        order = np.argsort(~valid, axis=1, kind="stable")
        take = np.arange(pool_d.shape[0])[:, None]
        pool_d = np.where(valid, pool_d, np.inf)[take, order]
        pool_id = np.where(valid, pool_id, -1)[take, order]
        return pool_d, pool_id
