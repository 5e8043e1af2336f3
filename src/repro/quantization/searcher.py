"""PQ-accelerated graph search: ADC-scored traversal + exact re-ranking.

The quantized-graph composition of Sec. 3's hybrids: greedy traversal over
the (possibly NGFix*-fixed) graph scores candidates with ``m`` ADC table
lookups instead of a full d-dimensional distance, then the shortlist is
re-ranked exactly.  Full-precision NDC drops to the re-rank budget; the
cheap lookups are counted separately so benches can report both.

Two traversal shapes share the machinery: :func:`pq_greedy_search` runs
one query with ADC lookups as its scorer, and
:class:`~repro.graphs.search.BatchSearchEngine` runs a block over an
:class:`~repro.quantization.adc.ADCComputer`.  Both go through
:func:`~repro.graphs.search.native_search` — the C traversal core when the
graph is frozen and the codes are plain uint8 — and otherwise through the
reference executor, :func:`~repro.graphs.search.beam_search` (so entry
handling, visited bookkeeping, tombstone traversal and deadline degradation
are :func:`~repro.graphs.search.greedy_search`'s by construction).

The recipe around either traversal — ADC beam, shortlist carved from the
*visited* set, fallback scan for an empty result, one exact re-rank — is
written once per traversal shape, in :func:`rerank_one` and
:func:`rerank_block`.  :class:`PQRerankSearcher` runs them over a live
graph; :class:`~repro.serving.ServingSearcher` runs the same two functions
over pinned epoch views.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances import DistanceComputer
from repro.graphs.base import live_graph_engine
from repro.graphs.search import (BatchSearchEngine, SearchResult, VisitedTable,
                                 beam_search, native_search, pad_results,
                                 unique_entries)
from repro.quantization.adc import ADCComputer
from repro.quantization.pq import ProductQuantizer
from repro.utils.validation import check_positive


def pq_greedy_search(
    pq: ProductQuantizer,
    codes: np.ndarray,
    neighbors_fn,
    entry_points,
    table: np.ndarray,
    k: int,
    ef: int,
    visited: VisitedTable | None = None,
    excluded: set[int] | None = None,
    deadline: float | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Greedy beam search scored entirely by ADC lookups.

    Returns ``(candidate ids best-first, number of ADC scorings,
    degraded)``.  Distances are approximate, so callers re-rank the output
    exactly.  The returned candidates are *every* node the beam scored (not
    just the final ef-pool), ordered by ADC distance: the visited set is a
    strict superset of the pool, so re-ranking a shortlist of it recovers
    recall the approximate ordering lost without widening the beam — the
    OOD-DiskANN recipe.  As in
    :func:`~repro.graphs.search.greedy_search`, excluded (tombstoned)
    entries still seed the traversal — they navigate but never surface —
    and a reused visited table is regrown to the code matrix before
    stamping, so searches stay valid after incremental inserts.
    ``deadline`` (absolute ``time.perf_counter()``) stops the expansion
    best-so-far once it passes.
    """
    return _pq_traverse(pq, codes, neighbors_fn, entry_points, table, k, ef,
                        visited, excluded, deadline)[:3]


def _pq_traverse(pq, codes, neighbors_fn, entry_points, table, k, ef,
                 visited, excluded, deadline,
                 ) -> tuple[np.ndarray, int, bool, int, str]:
    """:func:`pq_greedy_search` plus what the serving path also reports:
    ``(ids, n_scored, degraded, n_hops, executor)``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if visited is None:
        visited = VisitedTable(codes.shape[0])
    # A reused table may predate incremental insertion; without this,
    # stamping new node ids raises IndexError (same fix as greedy_search).
    visited.grow(codes.shape[0])
    entry_ids = unique_entries(entry_points)
    found = native_search(pq, neighbors_fn, table[None], [entry_ids], k,
                          max(ef, k), 1, visited, excluded, deadline,
                          collect=True, scorer_args=(codes,))
    if found is not None:
        (result,), _ = found
        ids, d = result.visited_ids, result.visited_distances
        degraded, n_hops = result.degraded, result.n_hops
    else:
        adc_distances = pq.adc_distances
        _, n_hops, _, degraded, (ids, d) = beam_search(
            lambda nodes: adc_distances(codes[nodes], table), neighbors_fn,
            entry_ids, max(ef, k), visited, excluded, deadline, collect=True)
    n_scored = int(ids.shape[0])
    if excluded:
        keep = np.fromiter((int(i) not in excluded for i in ids),
                           dtype=bool, count=ids.shape[0])
        ids, d = ids[keep], d[keep]
    order = np.lexsort((ids, d))  # distance-then-id, matching the heap order
    return (ids[order], n_scored, degraded, n_hops,
            "reference" if found is None else "native")


def visited_shortlist(ids: np.ndarray, dists: np.ndarray,
                      excluded: set[int] | None, budget: int) -> np.ndarray:
    """Top-``budget`` non-excluded visited nodes by ADC distance.

    The batched counterpart of :func:`pq_greedy_search`'s output: excluded
    (tombstoned/removed) nodes navigated during traversal but must never
    reach the exact re-rank, and of what remains only the ``budget``
    ADC-best are worth full-precision distances.
    """
    if ids is None or ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if excluded:
        keep = np.fromiter((int(i) not in excluded for i in ids),
                           dtype=bool, count=ids.shape[0])
        ids, dists = ids[keep], dists[keep]
        if ids.size == 0:
            return ids.astype(np.int64)
    if ids.size <= budget:
        return ids.astype(np.int64, copy=False)
    part = np.argpartition(dists, budget - 1)[:budget]
    return ids[part].astype(np.int64, copy=False)


def fallback_shortlist(adc: ADCComputer, table: np.ndarray,
                       excluded: set[int] | None, budget: int) -> np.ndarray:
    """Brute-force ADC shortlist for a traversal that surfaced nothing.

    When every entry point is tombstoned/removed *and* edgeless (compaction
    without entry relocation), the beam can terminate empty.  Rather than
    returning nothing, scan the resident code matrix — still no
    full-precision touches — and return the ``budget`` best non-excluded
    ids.  Excluded ids never surface; an all-excluded index yields an empty
    shortlist (nothing is servable).
    """
    scores = adc.all_scores(table)
    if excluded:
        keep = np.ones(scores.shape[0], dtype=bool)
        excl = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
        keep[excl[excl < scores.shape[0]]] = False
        candidates = np.flatnonzero(keep)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        scores = scores[candidates]
    else:
        candidates = None
    budget = min(budget, scores.shape[0])
    part = np.argpartition(scores, budget - 1)[:budget]
    order = part[np.argsort(scores[part], kind="stable")]
    return (order if candidates is None else candidates[order]).astype(np.int64)


def exact_rerank(dc: DistanceComputer, qmat: np.ndarray,
                 shortlists: list[np.ndarray], k: int,
                 degraded: list[bool] | None = None,
                 hops: list[int] | None = None) -> tuple[list[SearchResult], int]:
    """Exact re-rank of per-query ADC shortlists in one block gather.

    The only full-precision touches of the compressed path: all shortlist
    rows across the block are gathered with a single
    :meth:`~repro.distances.DistanceComputer.block_to_queries` call (one
    lazy page-in pass when ``dc`` is memmap-backed), then each query keeps
    its ``k`` exactly-nearest.  Returns ``(results, exact_ndc)``.
    """
    counts = np.fromiter((s.size for s in shortlists), dtype=np.int64,
                         count=len(shortlists))
    total = int(counts.sum())
    if total == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_d = np.empty(0, dtype=np.float64)
        return ([SearchResult(ids=empty_i, distances=empty_d,
                              degraded=bool(degraded[i]) if degraded else False)
                 for i in range(len(shortlists))], 0)
    flat = np.concatenate([s for s in shortlists if s.size])
    owners = np.repeat(np.arange(len(shortlists), dtype=np.int64), counts)
    exact = dc.block_to_queries(flat, qmat, owners).astype(np.float64,
                                                           copy=False)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    out: list[SearchResult] = []
    for i in range(len(shortlists)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        d, ids_row = exact[lo:hi], flat[lo:hi]
        order = np.argsort(d, kind="stable")[:k]
        out.append(SearchResult(
            ids=ids_row[order], distances=d[order],
            n_hops=int(hops[i]) if hops else 0,
            degraded=bool(degraded[i]) if degraded else False))
    return out, total


def rerank_one(adc: ADCComputer, dc: DistanceComputer, neighbors_fn,
               entry_points, q: np.ndarray, k: int, ef: int, budget: int,
               visited: VisitedTable | None = None,
               excluded: set[int] | None = None,
               deadline: float | None = None,
               ) -> tuple[SearchResult, int, int, float]:
    """One compressed query on the sequential beam.

    ``q`` is already prepared.  The beam runs at the caller's ``ef``; the
    shortlist draws from everything it scored, so the re-rank ``budget``
    (raised to ``k``) costs exact distances only, not traversal width.
    Returns ``(result, adc_scorings, exact_distances, rerank_seconds)`` —
    the caller owns its counters; ``rerank_seconds`` is the wall-clock of
    the exact gather, the path's only full-precision (possibly
    disk-resident) touches.
    """
    budget = max(budget, k)
    table = adc.begin_query(q)  # syncs codes first
    shortlist, n_scored, degraded, n_hops, executor = _pq_traverse(
        adc.pq, adc.codes, neighbors_fn, entry_points, table, k, max(ef, k),
        visited, excluded, deadline)
    shortlist = shortlist[:budget]
    if shortlist.size == 0:
        shortlist = fallback_shortlist(adc, table, excluded, budget)
        n_scored += adc.codes.shape[0]
    t0 = time.perf_counter()
    ids, distances = shortlist, np.empty(0, dtype=np.float64)
    if shortlist.size:  # else: nothing servable, the empty int64 shortlist
        exact = dc.to_query(shortlist, q)
        order = np.argsort(exact, kind="stable")[:k]
        ids, distances = shortlist[order], exact[order].astype(np.float64)
    result = SearchResult(ids=ids, distances=distances, n_hops=n_hops,
                          degraded=degraded, executor=executor)
    return result, n_scored, int(shortlist.size), time.perf_counter() - t0


def rerank_block(engine: BatchSearchEngine, adc: ADCComputer,
                 dc: DistanceComputer, queries: np.ndarray, k: int, ef: int,
                 budget: int, excluded_fn, deadline: float | None = None,
                 ) -> tuple[list[SearchResult], int, int, float]:
    """A block of compressed queries on the batch engine.

    ``engine`` scores with ``adc`` (its ``begin_block`` hook precomputes
    the block's ADC tables), so traversal runs entirely over the code
    matrix; the final shortlists are re-ranked with a single
    full-precision block gather.  ``excluded_fn`` returns the ids that may
    never surface — asked *after* traversal, so it bars from both the
    shortlist and the fallback scan anything tombstoned or removed by
    then.  Returns ``(results, adc_scorings, exact_distances,
    rerank_seconds)`` like :func:`rerank_one`.
    """
    budget = max(budget, k)
    adc0 = adc.ndc
    qmat = dc.prepare_queries(
        np.atleast_2d(np.asarray(queries, dtype=np.float32)))
    # The beam runs at the caller's ef; the shortlist is carved from the
    # *visited* set (every ADC-scored node), so a large re-rank budget
    # costs exact distance computations, not traversal width.
    approx = engine.search_batch(qmat, k=k, ef=max(ef, k), deadline=deadline,
                                 collect_visited=True, prepared=True)
    excluded = excluded_fn()
    shortlists = [
        visited_shortlist(r.visited_ids, r.visited_distances, excluded, budget)
        for r in approx]
    for i, shortlist in enumerate(shortlists):
        if shortlist.size == 0:
            shortlists[i] = fallback_shortlist(
                adc, adc.pq.adc_table(qmat[i]), excluded, budget)
    t0 = time.perf_counter()
    results, exact_ndc = exact_rerank(
        dc, qmat, shortlists, k,
        degraded=[r.degraded for r in approx],
        hops=[r.n_hops for r in approx])
    for result, traversal in zip(results, approx):
        result.executor = traversal.executor
    return results, adc.ndc - adc0, exact_ndc, time.perf_counter() - t0


class PQRerankSearcher:
    """ADC traversal over a graph index, exact re-rank of the shortlist.

    Parameters
    ----------
    index:
        Any graph index (or fixer) exposing ``adjacency``, ``dc``, and
        ``entry_points``.
    pq:
        A quantizer; fitted on the index's base data if not already.
    rerank:
        Shortlist size re-scored with exact distances (>= k at search).
    beam_width:
        Engine candidates expanded per query per round on the batched path.
        ADC scoring is cheap enough that a wide beam pays: the enlarged
        visited set feeds the exact re-rank.  Width 1 reproduces the
        uncompressed engine's expansion order exactly.

    The searcher stays valid across store mutations: codes are re-encoded
    incrementally (only rows appended since the last search) and the
    visited table regrows, so add → search → delete → search works without
    rebuilding.  Tombstoned/removed ids are excluded from results on both
    the sequential and batched paths.
    """

    def __init__(self, index, pq: ProductQuantizer | None = None,
                 rerank: int = 50, beam_width: int = 4):
        check_positive(rerank, "rerank")
        check_positive(beam_width, "beam_width")
        self.index = index
        self.rerank = rerank
        self.beam_width = beam_width
        if pq is None:
            pq = ProductQuantizer(m=ADCComputer._default_m(index.dc.dim),
                                  metric=index.dc.metric)
        self.adc = ADCComputer(index.dc, pq)
        self.pq = self.adc.pq
        self._visited = VisitedTable(index.dc.size)
        self._engine: BatchSearchEngine | None = None
        self.adc_scored = 0   # cumulative cheap scorings
        self.rerank_ndc = 0   # cumulative exact re-rank distance comps

    @property
    def codes(self) -> np.ndarray:
        """The (incrementally synced) uint8 code matrix."""
        return self.adc.codes

    @property
    def dc(self):
        return self.index.dc

    def sync(self) -> int:
        """Re-encode vectors appended since the last search (incremental)."""
        return self.adc.sync()

    # -- sequential path -----------------------------------------------------

    def search(self, query: np.ndarray, k: int, ef: int | None = None,
               deadline: float | None = None) -> SearchResult:
        """Approximate traversal, exact re-rank; exact NDC = rerank budget."""
        if ef is None:
            ef = max(k, 10)
        q = self.dc.prepare_query(query)
        adjacency = self.index.adjacency
        # The frozen CSR when the store offers one (as GraphIndex.search).
        result, n_scored, exact_ndc, _ = rerank_one(
            self.adc, self.dc, adjacency.traversal() or adjacency,
            self.index.entry_points(q), q, k, ef, self.rerank,
            visited=self._visited, excluded=adjacency.excluded_ids(),
            deadline=deadline)
        self.adc_scored += n_scored
        self.rerank_ndc += exact_ndc
        return result

    # -- batched path --------------------------------------------------------

    def search_batch(self, queries: np.ndarray, k: int, ef: int | None = None,
                     batch_size: int = 32,
                     deadline: float | None = None) -> list[SearchResult]:
        """Batched ADC traversal + one exact re-rank gather per batch.

        The engine runs entirely over the code matrix (its
        ``begin_block`` hook precomputes the block's ADC tables); the final
        shortlists are re-ranked with a single full-precision block gather.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if ef is None:
            ef = max(k, 10)
        self._engine = live_graph_engine(self._engine, self.index, self.adc,
                                         batch_size, self.beam_width)
        results, n_scored, exact_ndc, _ = rerank_block(
            self._engine, self.adc, self.dc, queries, k, ef, self.rerank,
            self.index.adjacency.excluded_ids, deadline)
        self.adc_scored += n_scored
        self.rerank_ndc += exact_ndc
        return results

    def search_many(self, queries: np.ndarray, k: int, ef: int | None = None,
                    batch_size: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Batched search returning padded (ids, distances) arrays."""
        return pad_results(
            self.search_batch(queries, k, ef, batch_size=batch_size), k)
