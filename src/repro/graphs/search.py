"""Greedy (beam) search — Algorithm 1 of the paper — plus the batch engine.

The sequential search keeps a candidate min-heap ``C`` and a bounded result
max-heap ``R`` of size ``ef`` (the paper's search list size L).  At each step
the closest unexpanded candidate is popped; if it is farther than the worst
result and ``R`` is full, the search terminates.  Otherwise its unvisited
neighbors are batch-scored (one vectorized distance call — this is where NDC
accrues) and pushed.

**One algorithm, two executors.**  :func:`beam_search` is the *reference
executor*: one Python loop, parameterised by a scoring callable
(:func:`greedy_search` runs it on the exact kernel,
:func:`repro.quantization.searcher.pq_greedy_search` on ADC lookups).  The
*native executor* is the same algorithm in C (``_beam.c``, built and loaded
by :mod:`repro.graphs.native`), about ten times cheaper per hop.
:func:`native_search` picks between them, once, for every search entry
point: it asks the scorer and the graph to describe themselves
(``native_scorer`` / ``native_graph``, looked up on their *exact* type) and
runs natively when both can — a frozen CSR, an epoch view or the live
``AdjacencyStore`` (index construction, ``add``, ``fix_query``) scored by a
plain :class:`~repro.distances.DistanceComputer` or PQ codes — else the
reference loop runs: a plain ``neighbors_fn`` callable, a proxy scorer, a
float64 query, a machine without a C compiler.  A call site therefore names
its graph by the object (store, view), never by a bound method.  A
compressed search may also hand the native executor the recipe's last
stage (``rerank``: shortlist the ADC-scored set, re-rank it exactly), whose
reference is the Python recipe in :mod:`repro.quantization.searcher`.  The two
are tested differentially (``tests/test_native.py``): same ids, hops, NDC,
frontier peak and ``degraded``, distances within float32 rounding of each
other (NumPy's reduction order is not reproducible in a C loop).

:class:`BatchSearchEngine` runs the same search for a *block* of queries:
the graph snapshot, the excluded set, query preparation and entry
resolution happen once per block, then the rows are walked one after the
other — in one native call, or one :func:`beam_search` per row.  It is what
every index's ``search`` and ``search_batch`` run (a lone query is a block
of one); :func:`greedy_search` is the direct entry the index builders, RFix
and other callers that hold their own graph and visited table use.

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
from repro.utils.growth import with_capacity

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
    "batch_blocks", "batch engine blocks executed")
_BATCH_QUERIES = OBS.counter(
    "batch_queries", "queries served through the batch engine")
_BATCH_OCCUPANCY = OBS.histogram(
    "batch_block_occupancy", "queries per engine block",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512))
_BATCH_ROUNDS = OBS.histogram(
    "batch_block_rounds", "hops of the longest row per engine block")
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
#: compiler, no Python headers, compile error, REPRO_NO_NATIVE); the scorer
#: or the graph has no native description; the kernel refused the input (id
#: out of range, a duplicate edge, an array it does not read).
_NATIVE_FALLBACK_REASONS = {
    reason: OBS.counter(f"search_native_fallback_{reason}", text)
    for reason, text in (
        ("unavailable", "fallbacks because the native library is not loaded"),
        ("scorer", "fallbacks because the scorer has no native description"),
        ("graph", "fallbacks because the graph has no native description"),
        ("rejected", "fallbacks because the native kernel refused the input"),
    )}

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
        """Extend capacity to at least ``n`` nodes (doubling: a store that
        grows one row at a time copies the stamps O(log n) times)."""
        stamps = self._stamps
        self._stamps = with_capacity(stamps, stamps.shape[0], n)

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
    loops).  ``ndc`` counts the traversal's own scorings (ADC lookups on a
    compressed route).  ``rerank`` is ``(shortlist size, seconds)`` when
    the native core also ran the compressed recipe's exact re-rank for
    this search (:func:`native_search`'s ``rerank``): ``ids``/``distances``
    are then the exact top-k of that shortlist, and a shortlist of 0 means
    nothing servable was scored.
    """

    ids: np.ndarray
    distances: np.ndarray
    n_hops: int = 0
    visited_ids: np.ndarray | None = None
    visited_distances: np.ndarray | None = None
    frontier_peak: int = 0
    degraded: bool = False
    executor: str = "reference"
    ndc: int = 0
    rerank: tuple[int, float] | None = None


def pad_results(results: list[SearchResult],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-query results into ``(ids, distances)`` of shape (nq, k).

    Rows with fewer than ``k`` results are padded with id -1 / distance inf:
    ``pad_results(index.search_batch(queries, k), k)`` is a batch as
    arrays.
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
                deadline: float | None = None, collect: bool = False,
                beam_width: int = 1):
    """The one Python beam loop (paper Algorithm 1) behind every scorer.

    ``score(ids) -> distances`` is all the loop knows about the metric:
    :func:`greedy_search` passes the exact kernel, the PQ searcher its ADC
    lookup.  ``entry_ids`` come from :func:`unique_entries`; ``visited``
    must already cover the graph (a new epoch is started here).  Returns
    ``(results, n_hops, frontier_peak, degraded, scored, ndc)``:
    ``results`` is the max-heap of ``(-distance, id)`` holding the ``ef``
    best non-excluded nodes, ``scored`` the ``(ids, distances)`` arrays of
    every node evaluated, in evaluation order, when ``collect`` is set
    (else ``None``), ``ndc`` how many ids ``score`` was handed.

    ``beam_width`` candidates are expanded per round.  Width 1 is the
    sequential search: pop the closest candidate, score its unvisited
    neighbors, prune them against the bound as it tightens.  A wider round
    pops up to ``beam_width`` candidates inside the bound as it stands at
    round start, marks neighbors as each expansion visits them (two
    expansions sharing a neighbor score it once), scores the round's
    frontier in one call and admits against the pre-round bound: some
    speculative scoring, the same termination test.  ``_beam.c`` runs this
    round per row; the two are tested differentially.  (A neighbor list is
    masked before it is marked, so a duplicate edge *within* one list is
    scored twice here where the kernel's wide round scores it once;
    ``AdjacencyStore`` never holds one — a repeated base neighbour is
    dropped and a base edge supersedes an extra edge to the same node — so
    no graph built here has one.)

    Per-hop interpreter work is what a query costs here (the kernel is a
    few percent of it), so whatever does not change within a search is
    hoisted out of the loop: bound methods, and the result heap's
    ``full``/``bound`` state, refreshed only where the heap changes.
    """
    push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
    filter_unvisited = visited.filter_unvisited
    clock = time.perf_counter
    wide = beam_width > 1
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
    ndc = entry_ids.shape[0]
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
        if wide:
            # The rest of the round: whatever else sits inside the bound as
            # it stands now, each expansion marking what it is about to score.
            admit = bound if full else np.inf
            parts = [filter_unvisited(neigh)]
            while (len(parts) < beam_width and candidates
                   and candidates[0][0] <= admit):
                parts.append(filter_unvisited(neighbors_fn(pop(candidates)[1])))
            n_hops += len(parts) - 1
            fresh = np.concatenate(parts)
        elif neigh.size == 0:
            continue
        else:
            fresh = filter_unvisited(neigh)
        if fresh.size == 0:
            continue
        dists = score(fresh)
        ndc += fresh.shape[0]
        if collect:
            scored_ids.append(fresh)
            scored_d.append(dists)
        if wide:
            for node, dist in zip(fresh.tolist(), dists.tolist()):
                if dist < admit:
                    push(candidates, (dist, node))
                    if excluded is None or node not in excluded:
                        if len(results) < ef:
                            push(results, (-dist, node))
                        else:
                            pushpop(results, (-dist, node))
            full = len(results) >= ef
            if full:
                bound = -results[0][0]
            continue
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
    return results, n_hops, frontier_peak, degraded, scored, ndc


def native_search(scorer_owner, graph_owner, queries: np.ndarray,
                  entry_lists: list[np.ndarray], k: int, ef: int,
                  beam_width: int, visited: VisitedTable,
                  excluded: set[int] | None, deadline: float | None,
                  collect: bool, scorer_args: tuple = (),
                  rerank: tuple | None = None,
                  ) -> tuple[list[SearchResult], int] | None:
    """Run a block of searches on the native executor, if it can.

    The single place an executor is chosen.  ``scorer_owner`` and
    ``graph_owner`` are whatever the caller scores and walks with; they
    are asked for ``native_scorer(*scorer_args, queries)`` (a bound scorer,
    ``(native.Scorer, query block)``) and ``native_graph()``, both specs
    cached on their owners.  Returns ``(results, distances_computed)`` — the
    caller owns its NDC counter — or None (with the reason counted) when
    the reference executor has to run.
    ``entry_lists`` holds one :func:`unique_entries` array per query row
    (the same object repeated when the rows share their entries).

    ``rerank`` is None or ``(exact_owner, exact_queries, budget)``: the
    compressed recipe's last stage in the same call.  ``exact_owner`` (a
    :class:`~repro.distances.DistanceComputer`) is asked for
    ``native_scorer(exact_queries)``, one prepared query per row; each
    result then carries ``rerank=(shortlist size, seconds)`` and the exact
    top-k of its ``budget`` best scored nodes, and the exact distances are
    the caller's to count.  An exact scorer without a native description
    is a ``"scorer"`` fallback like any other.
    """
    n_queries = len(entry_lists)
    exact = None
    if not native.enabled():
        reason = "unavailable"
    elif (graph := native.spec(graph_owner, "native_graph")) is None:
        # Asked first: a plain ``neighbors_fn`` answers with one getattr,
        # before any scorer is built.
        reason = "graph"
    elif ((scorer := native.spec(scorer_owner, "native_scorer", *scorer_args,
                                 queries)) is None
          or (rerank is not None and (exact := native.spec(
              rerank[0], "native_scorer", rerank[1])) is None)):
        reason = "scorer"
    else:
        entries, offsets = entry_lists[0], None
        if any(e is not entries for e in entry_lists):
            offsets = np.zeros(n_queries + 1, dtype=np.int64)
            np.cumsum([e.shape[0] for e in entry_lists], out=offsets[1:])
            entries = np.concatenate(entry_lists)
        visited.grow(scorer[0].rows.shape[0])
        rows = native.beam_block(
            graph, scorer, entries, offsets, k, ef, beam_width,
            visited._stamps, visited.reserve(n_queries),
            graph.mask_for(excluded), deadline, collect,
            None if exact is None else (exact, rerank[2]))
        reason = "rejected" if rows is None else None
    if reason is not None:
        if OBS.enabled:
            _NATIVE_FALLBACKS.inc()
            _NATIVE_FALLBACK_REASONS[reason].inc()
        return None
    _NATIVE_QUERIES.inc(n_queries)
    ndc = 0
    results = []
    for (ids, distances, n_hops, frontier_peak, row_ndc, degraded, v_ids, v_d,
         shortlist, seconds) in rows:
        ndc += row_ndc
        results.append(SearchResult(
            ids=ids, distances=distances, n_hops=n_hops,
            visited_ids=v_ids, visited_distances=v_d,
            frontier_peak=frontier_peak, degraded=degraded,
            executor="native", ndc=row_ndc,
            rerank=None if exact is None else (shortlist, seconds)))
    return results, ndc


def _reference_row(score, neighbors_fn, entry_ids: np.ndarray, k: int,
                   ef: int, beam_width: int, visited: VisitedTable,
                   excluded: set[int] | None, deadline: float | None,
                   collect_visited: bool) -> SearchResult:
    """One :func:`beam_search` scored by ``score(ids)`` as a
    :class:`SearchResult`."""
    results, n_hops, frontier_peak, degraded, scored, ndc = beam_search(
        score, neighbors_fn, entry_ids, ef, visited, excluded, deadline,
        collect_visited, beam_width)
    ordered = sorted((-d, node) for d, node in results)[:k]
    result = SearchResult(
        ids=np.array([node for _, node in ordered], dtype=np.int64),
        distances=np.array([d for d, _ in ordered], dtype=np.float64),
        n_hops=n_hops, frontier_peak=frontier_peak, degraded=degraded,
        ndc=ndc)
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
        ``node_id -> np.ndarray`` of out-neighbors: the graph object itself
        (an ``AdjacencyStore``, a frozen or epoch view — callable, and what
        the native executor can walk) or any plain callable (reference
        executor only).
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
    q = query if prepared else dc.prepare_query(query)
    if visited is None:
        visited = VisitedTable(dc.size)
    # A reused table may predate incremental insertion (dc.append +
    # adjacency.grow); without this, stamping new node ids raises IndexError.
    visited.grow(dc.size)
    entry_ids, ef = unique_entries(entry_points), max(ef, k)
    found = native_search(dc, neighbors_fn, q[None, :], [entry_ids], k, ef, 1,
                          visited, excluded, deadline, collect_visited)
    if found is not None:
        dc.ndc += found[1]
        result = found[0][0]
    else:
        to_query = dc.to_query
        result = _reference_row(lambda ids: to_query(ids, q), neighbors_fn,
                                entry_ids, k, ef, 1, visited, excluded,
                                deadline, collect_visited)
    if telemetry:
        _SEARCH_QUERIES.inc()
        _SEARCH_HOPS.observe(result.n_hops)
        _SEARCH_FRONTIER.observe(result.frontier_peak)
        _SEARCH_NDC.observe(result.ndc)
        _SEARCH_SECONDS.observe(time.perf_counter() - t0)
    return result


class BatchSearchEngine:
    """Batched beam search over one graph.

    Runs Algorithm 1 for a block of up to ``batch_size`` queries.  Per
    block it resolves the graph snapshot, the excluded set, the prepared
    queries and the entries once, then hands the block to
    :func:`native_search` — one C call that walks the rows one after the
    other.  When the native executor cannot take it (no compiler, a plain
    ``neighbors_fn``, a proxy scorer) the rows run one after the other on
    :func:`beam_search`, each scored through the block's
    ``dc.block_to_queries`` — slower, same answers.  ``graph_fn``,
    ``excluded_fn`` and entry resolution run once per block and the
    ``batch_*`` metrics count the block on either executor.

    **Equivalence.** On one executor the engine returns the same (ids,
    distances, NDC) as running :func:`greedy_search` per query: a single
    query *is* a block of one natively, and on the reference executor both
    run :func:`beam_search` over kernels that share their per-row
    reduction (``to_query`` / ``block_to_queries``).  A block of one
    therefore answers exactly as the scalar search does, which is why an
    index's lone ``search`` is this engine on one row.

    Parameters
    ----------
    dc:
        Distance computer over the base vectors (counts NDC).
    neighbors_fn:
        ``node_id -> np.ndarray`` of out-neighbors (see
        :func:`greedy_search`).
    entry_points_fn:
        ``prepared_query -> iterable of entry node ids``.
    excluded_fn:
        Nullary callable returning the current excluded set (tombstones) or
        None; evaluated once per block so lazy deletions are honored.
    graph_fn:
        Nullary callable returning a frozen
        :class:`~repro.graphs.csr.CSRGraphView` (or an epoch view) or None;
        evaluated once per block.  A view is what the native executor
        walks; when None the engine walks ``neighbors_fn``.  Neighbor order
        per node is identical on either path, so results are unaffected.
    batch_size:
        Queries per block.
    beam_width:
        Candidates expanded per query per round (see :func:`beam_search`).
        The default 1 preserves the sequential equivalence above exactly.
        Widths above 1 expand the ``beam_width`` closest in-bound
        candidates each round at the cost of some speculative scoring; the
        larger scored set is what ``collect_visited`` re-ranking draws
        from.  Termination is unchanged: a row finishes when its best
        unexpanded candidate exceeds the bound.
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
        # The engine's only mutable state: one engine serves one thread at
        # a time (ServingSearcher keeps its engines per thread).
        self._visited = VisitedTable(1)

    def search_batch(self, queries: np.ndarray, k: int, ef: int,
                     deadline: float | None = None,
                     collect_visited: bool = False,
                     prepared: bool = False,
                     rerank: tuple | None = None) -> list[SearchResult]:
        """Search all ``queries``; returns one :class:`SearchResult` per row.

        ``deadline`` (absolute ``time.perf_counter()``) is one budget for
        the whole batch, spent on the rows in order: rows finished before
        it passes are full-effort, the row it interrupts returns its best
        so far, and every row after that — in this block and in later
        ones — returns only its scored entry points.  Each row it cut
        short is flagged ``degraded``, which is therefore monotone over
        the batch.
        ``collect_visited`` additionally records every (node, distance)
        scored for each query — the batched counterpart of
        :func:`greedy_search`'s flag, and what the compressed path's
        reference recipe re-ranks from (the visited set is a strict
        superset of the ef-pool, so an
        exact re-rank over it recovers recall the approximate ordering
        lost, at zero extra traversal cost).  ``prepared`` marks the rows as
        already passed through ``dc.prepare_query`` (the caller built the
        matrix for its own use, e.g. ADC tables), skipping a second
        per-row preparation pass.

        ``rerank=(exact_dc, budget)`` asks the native executor for the
        compressed recipe's exact re-rank in the same call (see
        :func:`native_search`), scored against the block's prepared rows:
        a native row comes back re-ranked, with ``rerank`` set.  A row the
        reference executor answered comes back as ``collect_visited`` would
        return it, for the caller's own re-rank.
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
                                       collect_visited, prepared, rerank))
        return out

    def _run_block(self, block: np.ndarray, k: int, ef: int,
                   deadline: float | None, collect_visited: bool,
                   prepared: bool, rerank: tuple | None,
                   ) -> list[SearchResult]:
        """One block: per-block state, then the rows on either executor.

        The graph snapshot (one epoch pin), the excluded set, query
        preparation, entry resolution and the ``batch_*`` telemetry record
        are per block on either executor; only the traversal differs.
        """
        dc = self.dc
        n_queries = block.shape[0]
        telemetry = OBS.enabled
        if telemetry:
            t0 = time.perf_counter()
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
        # per-query lookup tables here, after which scoring is a table
        # fancy-index instead of a full-precision kernel.  Runs before
        # ``dc.size`` is read: the hook may sync freshly appended rows into
        # the code matrix.
        begin_block = getattr(dc, "begin_block", None)
        if begin_block is not None:
            begin_block(qmat)
        if self.entry_points_block_fn is not None:
            entry_lists = [unique_entries(
                self.entry_points_block_fn(qmat))] * n_queries
        else:
            entry_lists = [unique_entries(self.entry_points_fn(q))
                           for q in qmat]

        neighbors_fn = graph if graph is not None else self.neighbors_fn
        found = native_search(
            dc, neighbors_fn, qmat, entry_lists, k, ef, self.beam_width,
            self._visited, excluded, deadline, collect_visited,
            rerank=None if rerank is None else (rerank[0], qmat, rerank[1]))
        if found is not None:
            final, ndc = found
            dc.ndc += ndc
        else:
            self._visited.grow(dc.size)
            score = dc.block_to_queries
            collect = collect_visited or rerank is not None
            final = [
                _reference_row(
                    lambda ids, row=row: score(
                        ids, qmat, np.full(ids.shape[0], row)),
                    neighbors_fn, entries, k, ef, self.beam_width,
                    self._visited, excluded, deadline, collect)
                for row, entries in enumerate(entry_lists)]
        if telemetry:
            _BATCH_BLOCKS.inc()
            _BATCH_QUERIES.inc(n_queries)
            _BATCH_OCCUPANCY.observe(n_queries)
            _BATCH_ROUNDS.observe(max(r.n_hops for r in final))
            _BATCH_NDC.observe(sum(r.ndc for r in final))
            _BATCH_SECONDS.observe(time.perf_counter() - t0)
        return final
