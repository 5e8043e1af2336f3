"""PQ-accelerated graph search: ADC-scored traversal + exact re-ranking.

The quantized-graph composition of Sec. 3's hybrids: greedy traversal over
the (possibly NGFix*-fixed) graph scores candidates with ``m`` ADC table
lookups instead of a full d-dimensional distance, then the shortlist is
re-ranked exactly.  Full-precision NDC drops to the re-rank budget; the
cheap lookups are counted separately so benches can report both.

The recipe — ADC beam, shortlist carved from the *visited* set, fallback
scan for an empty result, one exact re-rank — is written once, in
:func:`rerank_block`, and runs on a
:class:`~repro.graphs.search.BatchSearchEngine` over an
:class:`~repro.quantization.adc.ADCComputer`; a lone query is a block of
one.  It has the beam's two executors.  Natively each engine block is one
call: ``_beam.c`` walks the beam, carves each row's top-``budget``
shortlist from what it scored and re-ranks it exactly before returning
(:func:`~repro.graphs.search.native_search`'s ``rerank``).  The Python
recipe — :func:`~repro.graphs.search.beam_search`, then
:func:`visited_shortlist` by (ADC distance, id), then :func:`exact_rerank`
— is the reference executor and runs for every row the kernel did not
answer (so entry handling, visited bookkeeping, tombstone traversal and
deadline degradation are the exact search's by construction).  The
fallback scan (:func:`fallback_shortlist`) is Python on both.
:class:`PQRerankSearcher` runs the recipe over a live graph;
:class:`~repro.serving.ServingSearcher` runs it over pinned epoch views.
:func:`pq_greedy_search` is the bare ADC beam of one query, without the
re-rank.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.distances import DistanceComputer
from repro.distances.computer import _NDC_LOCK
from repro.graphs.base import live_graph_engine
from repro.graphs.search import (BatchSearchEngine, SearchResult, VisitedTable,
                                 _reference_row, native_search, unique_entries)
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
    exactly.  The returned candidates are *every* non-excluded node the
    beam scored (not just the final ef-pool), ordered by (ADC distance,
    id): the visited set is a strict superset of the pool, so re-ranking a
    shortlist of it recovers recall the approximate ordering lost without
    widening the beam — the OOD-DiskANN recipe.  As in
    :func:`~repro.graphs.search.greedy_search`, excluded (tombstoned)
    entries still seed the traversal — they navigate but never surface —
    and a reused visited table is regrown to the code matrix before
    stamping, so searches stay valid after incremental inserts.
    ``deadline`` (absolute ``time.perf_counter()``) stops the expansion
    best-so-far once it passes.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if visited is None:
        visited = VisitedTable(codes.shape[0])
    # A reused table may predate incremental insertion; without this,
    # stamping new node ids raises IndexError (same fix as greedy_search).
    visited.grow(codes.shape[0])
    entry_ids, ef = unique_entries(entry_points), max(ef, k)
    found = native_search(pq, neighbors_fn, table[None], [entry_ids], k, ef,
                          1, visited, excluded, deadline, collect=True,
                          scorer_args=(codes,))
    if found is not None:
        traversal = found[0][0]
    else:
        adc_distances = pq.adc_distances
        traversal = _reference_row(
            lambda nodes: adc_distances(codes[nodes], table), neighbors_fn,
            entry_ids, k, ef, 1, visited, excluded, deadline, True)
    ids = visited_shortlist(traversal.visited_ids,
                            traversal.visited_distances, excluded, None)
    return ids, traversal.ndc, traversal.degraded


def visited_shortlist(ids: np.ndarray, dists: np.ndarray,
                      excluded: set[int] | None,
                      budget: int | None) -> np.ndarray:
    """Top-``budget`` non-excluded visited nodes by (ADC distance, id).

    The reference executor of the shortlist ``_beam.c`` carves: excluded
    (tombstoned/removed) nodes navigated during traversal but must never
    reach the exact re-rank, and of what remains only the ``budget``
    ADC-best are worth full-precision distances (every one for None),
    ascending, ties by id, a node scored twice kept twice.
    """
    if ids is None or ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if excluded:
        keep = np.fromiter((int(i) not in excluded for i in ids),
                           dtype=bool, count=ids.shape[0])
        ids, dists = ids[keep], dists[keep]
    return ids[np.lexsort((ids, dists))[:budget]].astype(np.int64, copy=False)


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
                 traversals: list[SearchResult],
                 ) -> tuple[list[SearchResult], int]:
    """Exact re-rank of per-query ADC shortlists in one block gather.

    The reference executor's full-precision touches: all shortlist rows
    across the block are gathered with a single
    :meth:`~repro.distances.DistanceComputer.block_to_queries` call (one
    lazy page-in pass when ``dc`` is memmap-backed), then row ``i`` keeps
    its ``k`` exactly-nearest, ties by shortlist position (a stable sort,
    as the kernel keeps them), and the rest of ``traversals[i]`` — hops,
    frontier peak, ``degraded``, executor.  Returns ``(results,
    exact_ndc)``.
    """
    counts = [s.shape[0] for s in shortlists]
    total = sum(counts)
    exact = np.empty(0, dtype=np.float64)
    if total:
        owners = np.repeat(np.arange(len(shortlists), dtype=np.int64), counts)
        exact = dc.block_to_queries(np.concatenate(shortlists), qmat,
                                    owners).astype(np.float64, copy=False)
    out: list[SearchResult] = []
    lo = 0
    for shortlist, traversal in zip(shortlists, traversals):
        d = exact[lo:lo + shortlist.shape[0]]
        lo += shortlist.shape[0]
        order = np.argsort(d, kind="stable")[:k]
        out.append(dataclasses.replace(
            traversal, ids=shortlist[order], distances=d[order],
            visited_ids=None, visited_distances=None))
    return out, total


def rerank_block(engine: BatchSearchEngine, adc: ADCComputer,
                 dc: DistanceComputer, queries: np.ndarray, k: int, ef: int,
                 budget: int, excluded_fn, deadline: float | None = None,
                 ) -> tuple[list[SearchResult], int, int, float]:
    """A block of compressed queries on the batch engine.

    ``engine`` scores with ``adc`` (its ``begin_block`` hook precomputes
    the block's ADC tables), so traversal runs entirely over the code
    matrix.  Natively each engine block is one kernel call that also
    carves and re-ranks every row's shortlist; rows the reference executor
    answered are re-ranked with a single full-precision block gather.
    ``excluded_fn`` returns the ids that may never surface — asked *after*
    traversal, so it bars from both the shortlist and the fallback scan
    anything tombstoned or removed by then; a natively re-ranked row whose
    top-k meets such an id is searched again and re-ranked by the
    reference recipe.

    The beam runs at the caller's ``ef``; the shortlist draws from
    everything it scored, so the re-rank ``budget`` (raised to ``k``)
    costs exact distances only, not traversal width.  Returns ``(results,
    adc_scorings, exact_distances, rerank_seconds)`` — the caller owns its
    counters (``dc.ndc`` is counted here).  ``adc_scorings`` sums the
    rows' own counts (``adc.ndc`` is shared by concurrent readers);
    ``rerank_seconds`` is the wall-clock of the exact scoring, the path's
    only full-precision (possibly disk-resident) touches.
    """
    budget, ef = max(budget, k), max(ef, k)
    qmat = dc.prepare_queries(
        np.atleast_2d(np.asarray(queries, dtype=np.float32)))
    results = engine.search_batch(qmat, k=k, ef=ef, deadline=deadline,
                                  prepared=True, rerank=(dc, budget))
    excluded = excluded_fn()
    n_scored = sum(r.ndc for r in results)
    stale = [i for i, r in enumerate(results)
             if excluded and r.rerank is not None
             and not excluded.isdisjoint(r.ids.tolist())]
    if stale:
        again = engine.search_batch(qmat[stale], k=k, ef=ef,
                                    deadline=deadline, collect_visited=True,
                                    prepared=True)
        n_scored += sum(r.ndc for r in again)
        for i, result in zip(stale, again):
            results[i] = result
    exact_ndc, seconds = 0, 0.0
    rows, shortlists = [], []
    for i, result in enumerate(results):
        if result.rerank is None:  # the reference recipe
            shortlist = visited_shortlist(result.visited_ids,
                                          result.visited_distances, excluded,
                                          budget)
        elif result.rerank[0]:
            exact_ndc += result.rerank[0]
            seconds += result.rerank[1]
            continue
        else:
            shortlist = np.empty(0, dtype=np.int64)
        if shortlist.size == 0:
            shortlist = fallback_shortlist(
                adc, adc.pq.adc_table(qmat[i]), excluded, budget)
            n_scored += adc.codes.shape[0]
        rows.append(i)
        shortlists.append(shortlist)
    with _NDC_LOCK:
        dc.ndc += exact_ndc
    if rows:
        t0 = time.perf_counter()
        reranked, ndc = exact_rerank(dc, qmat[rows], shortlists, k,
                                     [results[i] for i in rows])
        seconds += time.perf_counter() - t0
        exact_ndc += ndc
        for i, result in zip(rows, reranked):
            results[i] = result
    return results, n_scored, exact_ndc, seconds


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
        Engine candidates expanded per query per round by
        :meth:`search_batch` (a lone :meth:`search` walks width 1).  ADC
        scoring is cheap enough that a wide beam pays: the enlarged visited
        set feeds the exact re-rank.  Width 1 reproduces the uncompressed
        engine's expansion order exactly.

    The searcher stays valid across store mutations: codes are re-encoded
    incrementally (only rows appended since the last search) and the
    visited table regrows, so add → search → delete → search works without
    rebuilding.  Tombstoned/removed ids never surface.
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
        # One engine per (batch_size, beam_width): a lone search walks
        # width 1, a batch ``beam_width``.
        self._engines: dict[tuple[int, int], BatchSearchEngine] = {}
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

    def search(self, query: np.ndarray, k: int, ef: int | None = None,
               deadline: float | None = None) -> SearchResult:
        """Approximate traversal, exact re-rank: a block of one, walked at
        width 1."""
        return self._run(np.asarray(query, dtype=np.float32)[None], k, ef,
                         1, 1, deadline)[0]

    def search_batch(self, queries: np.ndarray, k: int, ef: int | None = None,
                     batch_size: int = 32,
                     deadline: float | None = None) -> list[SearchResult]:
        """Batched ADC traversal + one exact re-rank gather per batch.

        The engine runs entirely over the code matrix (its
        ``begin_block`` hook precomputes the block's ADC tables); the final
        shortlists are re-ranked with a single full-precision block gather.
        """
        return self._run(queries, k, ef, batch_size, self.beam_width,
                         deadline)

    def _run(self, queries: np.ndarray, k: int, ef: int | None,
             batch_size: int, beam_width: int,
             deadline: float | None) -> list[SearchResult]:
        if ef is None:
            ef = max(k, 10)
        key = (batch_size, beam_width)
        engine = self._engines[key] = live_graph_engine(
            self._engines.get(key), self.index, self.adc, batch_size,
            beam_width)
        results, n_scored, exact_ndc, _ = rerank_block(
            engine, self.adc, self.dc, queries, k, ef, self.rerank,
            self.index.adjacency.excluded_ids, deadline)
        self.adc_scored += n_scored
        self.rerank_ndc += exact_ndc
        return results
