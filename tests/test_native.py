"""The native traversal core against the reference executor, and its loader.

One algorithm, two executors: ``_beam.c`` must be the search
``beam_search`` runs, at every beam width, and its re-rank stage the
compressed recipe's Python one, up to float32 rounding
(``conftest.tie_tolerant_equal``); a native single query and a native block
of one are the same code and must agree bit for bit; and a machine without
a usable compiler must end up on a working reference executor that says
why.  Everything that needs the compiled library is skipped with the
loader's reason when there is none.
"""

import contextlib
import os
import pathlib
import subprocess
import sys
import sysconfig
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.stats import merge_stats
from repro.distances import DistanceComputer, Metric
from repro.graphs import HNSW, native
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.pruning import _occlusion_prune, rng_prune
from repro.graphs.search import (BatchSearchEngine, SearchResult,
                                 VisitedTable, _reference_row, greedy_search,
                                 unique_entries)
from repro.obs import OBS, TRACES
from repro.quantization.adc import ADCComputer
from repro.quantization.pq import ProductQuantizer
from repro.quantization.searcher import rerank_block
from repro.store import VectorStore
from tests.conftest import (csr_graph, reference_executor, store_of,
                            tie_tolerant_equal)

needs_native = pytest.mark.skipif(
    not native.enabled(),
    reason=f"no native executor: {native.status()['reason']}")
needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on PATH")

SRC = str(pathlib.Path(native.__file__).resolve().parents[2])
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def worlds(draw, duplicates: bool):
    """Random data + a random CSR graph: isolated nodes, self-loops and
    (optionally) duplicate edges included, ``n`` from 1."""
    n = draw(st.integers(1, 48))
    dim = draw(st.integers(1, 19))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32) + 0.1
    max_degree = draw(st.integers(0, 7))
    lists = []
    for _ in range(n):
        degree = int(rng.integers(0, max_degree + 1))  # 0 = isolated
        row = rng.integers(0, n, size=degree)          # self-loops happen
        if not duplicates:
            row = np.unique(row)
            rng.shuffle(row)
        lists.append(row.tolist())
    metric = draw(st.sampled_from(list(Metric)))
    n_entries = draw(st.integers(1, min(n, 4)))
    entries = unique_entries(rng.choice(n, size=n_entries, replace=False))
    excluded = draw(st.sampled_from(["none", "some", "entries", "all"]))
    barred = {"none": None,
              "some": set(rng.choice(n, size=max(n // 3, 1),
                                     replace=False).tolist()),
              "entries": set(entries.tolist()),
              "all": set(range(n))}[excluded]
    k = draw(st.integers(1, 12))
    ef = draw(st.integers(1, 70))                      # < k and > n both
    queries = rng.standard_normal((3, dim)).astype(np.float32)
    return (DistanceComputer(data, metric), csr_graph(lists), entries, barred,
            k, max(ef, k), queries)


def deadlines():
    return st.sampled_from(["none", "generous", "expired"])


def as_deadline(kind: str) -> float | None:
    return {"none": None, "generous": time.perf_counter() + 60.0,
            "expired": time.perf_counter() - 1.0}[kind]


# -- the comparator itself ----------------------------------------------------

class TestTieTolerantEqual:
    """One-dimensional L2 data, query at the origin: a node's distance is its
    coordinate squared, so near-ties can be placed by hand."""

    @staticmethod
    def _pair(coords, scored_a, scored_b):
        dc = DistanceComputer(np.asarray(coords, dtype=np.float32)[:, None],
                              "l2")
        q = dc.prepare_query(np.zeros(1, dtype=np.float32))

        def result(scored, n_hops):
            scored = np.asarray(scored, dtype=np.int64)
            return SearchResult(
                ids=np.array([0], dtype=np.int64),
                distances=dc.to_query(np.array([0]), q).astype(np.float64),
                n_hops=n_hops, visited_ids=scored,
                visited_distances=dc.to_query(scored, q))

        return result(scored_a, 2), result(scored_b, 3), dc, q

    def test_a_near_tie_scored_before_the_divergence_excuses_it(self):
        tied = np.nextafter(np.float32(2.0), np.float32(3.0))
        a, b, dc, q = self._pair([1.0, 2.0, tied, 3.0, 4.0, 5.0],
                                 [0, 1, 2, 3], [0, 1, 2, 4, 5])
        assert tie_tolerant_equal(a, b, dc, q)

    def test_a_near_tie_scored_after_it_does_not(self):
        tied = np.nextafter(np.float32(5.0), np.float32(6.0))
        a, b, dc, q = self._pair([1.0, 2.0, 3.0, 4.0, 5.0, tied],
                                 [0, 1, 2, 3], [0, 1, 2, 4, 5])
        assert not tie_tolerant_equal(a, b, dc, q)
        a.n_hops = b.n_hops
        a.visited_ids = b.visited_ids
        assert tie_tolerant_equal(a, b, dc, q)


# -- exact scorer, one candidate wide ----------------------------------------

@needs_native
class TestExactSequential:
    @PROPERTY
    @given(worlds(duplicates=True), st.booleans(), deadlines())
    def test_matches_reference(self, world, collect, deadline_kind):
        dc, view, entries, barred, k, ef, queries = world
        visited = VisitedTable(dc.size)
        for query in queries:
            q = dc.prepare_query(query)
            deadline = as_deadline(deadline_kind)
            dc.reset_ndc()
            want = _reference_row(lambda ids: dc.to_query(ids, q), view,
                                  entries, k, ef, 1, visited, barred,
                                  deadline, collect)
            ndc_want = dc.reset_ndc()
            got = greedy_search(dc, view, entries, q, k, ef, visited, barred,
                                collect, prepared=True, deadline=deadline)
            ndc_got = dc.reset_ndc()
            if got.executor == "reference":
                # A duplicate edge can score a node twice; the kernel's
                # scratch is sized for once and it hands the search back.
                assert any(len(set(row)) < len(row) for row in (
                    view.neighbors(u).tolist() for u in range(dc.size)))
                continue
            assert tie_tolerant_equal(want, got, dc, q,
                                      ndc=(ndc_want, ndc_got))
            if deadline_kind == "expired":
                assert got.degraded and got.n_hops == 0
            else:
                assert not got.degraded
            if barred:
                assert not set(got.ids.tolist()) & barred
            if collect:
                np.testing.assert_array_equal(want.visited_ids,
                                              got.visited_ids)

    @PROPERTY
    @given(worlds(duplicates=False))
    def test_one_query_is_a_block_of_one_bit_for_bit(self, world):
        dc, view, entries, barred, k, ef, queries = world
        qmat = dc.prepare_queries(queries)
        visited = VisitedTable(dc.size)
        singles = [greedy_search(dc, view, entries, q, k, ef, visited, barred,
                                 prepared=True) for q in qmat]
        engine = BatchSearchEngine(dc, view, lambda q: entries,
                                   excluded_fn=lambda: barred,
                                   graph_fn=lambda: view, batch_size=2)
        block = engine.search_batch(qmat, k, ef, prepared=True)
        for one, row in zip(singles, block):
            assert one.executor == row.executor == "native"
            np.testing.assert_array_equal(one.ids, row.ids)
            np.testing.assert_array_equal(one.distances, row.distances)
            assert (one.n_hops, one.frontier_peak) == (row.n_hops,
                                                       row.frontier_peak)

    def test_float64_query_and_foreign_layouts_fall_back(self):
        rng = np.random.default_rng(0)
        dc = DistanceComputer(rng.standard_normal((20, 4)), "cosine")
        view = csr_graph([[(u + 1) % 20, (u + 7) % 20] for u in range(20)])
        zero = dc.prepare_query(np.zeros(4, dtype=np.float32))
        assert zero.dtype == np.float64  # the degenerate-norm query
        assert greedy_search(dc, view, [0], zero, 3, 8,
                             prepared=True).executor == "reference"
        q = dc.prepare_query(rng.standard_normal(4))
        assert greedy_search(dc, view, [0], q, 3, 8,
                             prepared=True).executor == "native"
        # A plain callable has no native description, whatever it wraps.
        assert greedy_search(dc, view.neighbors, [0], q, 3, 8,
                             prepared=True).executor == "reference"
        dc._data = np.asfortranarray(dc._data)
        assert greedy_search(dc, view, [0], q, 3, 8,
                             prepared=True).executor == "reference"

    def test_proxy_scorer_lands_on_the_reference_executor(self):
        """benchmarks/perf's KernelProbe forwards attributes; its kernel
        spans are real only if the Python loop calls it."""
        class Proxy:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def to_query(self, ids, q):
                self.calls += 1
                return self._inner.to_query(ids, q)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        rng = np.random.default_rng(1)
        dc = DistanceComputer(rng.standard_normal((30, 5)), "l2")
        view = csr_graph([[(u + 1) % 30, (u + 11) % 30] for u in range(30)])
        proxy = Proxy(dc)
        q = rng.standard_normal(5).astype(np.float32)
        result = greedy_search(proxy, view, [0], q, 3, 8)
        assert result.executor == "reference" and proxy.calls > 0
        engine = BatchSearchEngine(proxy, view, lambda q: [0],
                                   graph_fn=lambda: view)
        assert engine.search_batch(q[None], 3, 8)[0].executor == "reference"


# -- wide beam and ADC: the block engine -------------------------------------

def _engine_pair(scorer, view, entries, barred, width):
    return BatchSearchEngine(scorer, view, lambda q: entries,
                             excluded_fn=lambda: barred,
                             graph_fn=lambda: view, batch_size=8,
                             beam_width=width)


class TestBlocks:
    @needs_native
    @PROPERTY
    @given(worlds(duplicates=False), st.sampled_from([1, 2, 4, 8]),
           deadlines())
    def test_exact_block_matches_lockstep_rounds(self, world, width,
                                                 deadline_kind):
        """The kernel's round against ``beam_search(beam_width=width)``."""
        dc, view, entries, barred, k, ef, queries = world
        qmat = dc.prepare_queries(queries)
        engine = _engine_pair(dc, view, entries, barred, width)
        with reference_executor():
            dc.reset_ndc()
            want = engine.search_batch(qmat, k, ef, as_deadline(deadline_kind),
                                       collect_visited=True, prepared=True)
            ndc_want = dc.reset_ndc()
        got = engine.search_batch(qmat, k, ef, as_deadline(deadline_kind),
                                  collect_visited=True, prepared=True)
        ndc_got = dc.reset_ndc()
        assert all(r.executor == "native" for r in got)
        assert ndc_want == ndc_got
        assert all(r.executor == "reference" for r in want)
        for a, b, q in zip(want, got, qmat):
            assert tie_tolerant_equal(a, b, dc, q)

    def test_deadline_expiring_partway_through_a_block(self):
        """One budget, rows in order, on either executor: full-effort rows,
        at most one row cut short best-so-far, then entry points only —
        ``degraded`` monotone."""
        rng = np.random.default_rng(5)
        n, dim, rows = 3000, 24, 64
        dc = DistanceComputer(rng.standard_normal((n, dim)), "l2")
        view = csr_graph([rng.choice(n, size=12, replace=False).tolist()
                          for _ in range(n)])
        entries = unique_entries([0, 1])
        qmat = dc.prepare_queries(rng.standard_normal((rows, dim)))
        engine = BatchSearchEngine(dc, view, lambda q: entries,
                                   graph_fn=lambda: view, batch_size=rows)
        executors = {"reference": reference_executor}
        if native.enabled():
            executors["native"] = contextlib.nullcontext
        for name, executor in executors.items():
            with executor():
                self._expires_mid_block(engine, qmat, entries, name)

    @staticmethod
    def _expires_mid_block(engine, qmat, entries, executor):
        rows = qmat.shape[0]
        t0 = time.perf_counter()
        full = engine.search_batch(qmat, 10, 300, prepared=True)
        full_s = time.perf_counter() - t0
        assert all(r.executor == executor for r in full)
        for _ in range(5):  # the budget is wall time: allow a noisy neighbour
            got = engine.search_batch(
                qmat, 10, 300, time.perf_counter() + full_s / 4,
                prepared=True)
            flags = [r.degraded for r in got]
            first = flags.index(True) if True in flags else rows
            assert all(flags[first:])
            for want, row in zip(full[:first], got[:first]):
                np.testing.assert_array_equal(want.ids, row.ids)
                np.testing.assert_array_equal(want.distances, row.distances)
            for row in got[first + 1:]:
                assert row.n_hops == 0
                assert set(row.ids.tolist()) <= set(entries.tolist())
            if 0 < first < rows - 1:
                break
        else:
            pytest.fail(f"no {executor} run expired mid-block "
                        f"(last split at {first})")

    @needs_native
    @PROPERTY
    @given(st.integers(16, 64), st.sampled_from([1, 3, 5]),
           st.integers(1, 3), st.sampled_from(list(Metric)),
           st.sampled_from([1, 2, 4, 8]), st.integers(0, 2**20))
    def test_adc_block_matches_lockstep_rounds(self, n, m, d_sub, metric,
                                               width, seed):
        """ADC, with subspace counts the table loop cannot unroll evenly.
        The kernel sums a code's table entries in subspace order like
        ``ADCComputer.block_to_queries``, so on the same tables the two
        executors see *bit-identical* distances, break exact ties (two
        codes, one sum) by the same (distance, id) order, and must run the
        same search."""
        rng = np.random.default_rng(seed)
        dc = DistanceComputer(rng.standard_normal((n, m * d_sub)), metric)
        view = csr_graph([rng.choice(n, size=4, replace=False).tolist()
                          for _ in range(n)])
        entries = unique_entries(rng.choice(n, size=2, replace=False))
        barred = set(rng.choice(n, size=n // 4, replace=False).tolist())
        adc = ADCComputer(dc, ProductQuantizer(m=m, ks=16, metric=metric))
        qmat = dc.prepare_queries(rng.standard_normal((4, m * d_sub)))
        engine = _engine_pair(adc, view, entries, barred, width)
        with reference_executor():
            want = engine.search_batch(qmat, 5, 12, collect_visited=True,
                                       prepared=True)
            ndc_want = adc.reset_ndc()
        got = engine.search_batch(qmat, 5, 12, collect_visited=True,
                                  prepared=True)
        assert adc.reset_ndc() == ndc_want
        for a, b in zip(want, got):
            assert (a.executor, b.executor) == ("reference", "native")
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert (a.n_hops, a.frontier_peak) == (b.n_hops, b.frontier_peak)
            np.testing.assert_array_equal(a.visited_ids, b.visited_ids)
            np.testing.assert_array_equal(a.visited_distances,
                                          b.visited_distances)

    @needs_native
    def test_adc_scalar_matches_pq_rerank_reference(self, tiny_ds):
        """A compressed store's lone queries natively and on the reference
        recipe: the same ids and hops, the same ADC and re-rank counts."""
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3, compressed=True,
                            rerank=30)
        store.add(tiny_ds.base)
        store.build()
        searcher = store.searcher
        queries = tiny_ds.test_queries[:25]

        def run():
            searcher.adc_scored = searcher.rerank_ndc = 0
            results = [searcher.search(q, 10, 40) for q in queries]
            return results, searcher.adc_scored, searcher.rerank_ndc

        with reference_executor():
            want, scored_want, rerank_want = run()
        got, scored_got, rerank_got = run()
        store.close()
        assert (scored_want, rerank_want) == (scored_got, rerank_got)
        for a, b in zip(want, got):
            assert (a.executor, b.executor) == ("reference", "native")
            np.testing.assert_array_equal(a.ids, b.ids)
            assert a.n_hops == b.n_hops > 0


# -- the compressed recipe: ADC beam -> shortlist -> exact re-rank ------------

def _codes_for(dc: DistanceComputer) -> ADCComputer:
    return ADCComputer(dc, ProductQuantizer(
        m=ADCComputer._default_m(dc.dim), ks=min(8, dc.size),
        metric=dc.metric, seed=0))


def _same_recipe(want, got, dc, q):
    """Reference and native answers of one compressed search: the same
    search (``tie_tolerant_equal`` on the re-ranked ids) and the same
    counts, each returned as ``(result, adc_scored, rerank_ndc, dc.ndc)``.
    The beams see bit-identical ADC distances, so their hops are equal
    outright, with no near-tie excuse."""
    assert want[0].executor == "reference"
    assert got[0].executor == "native"
    assert want[1:] == got[1:]
    assert (want[0].n_hops, want[0].frontier_peak) == (got[0].n_hops,
                                                       got[0].frontier_peak)
    assert tie_tolerant_equal(want[0], got[0], dc, q)


@needs_native
class TestCompressedRecipe:
    """``rerank_block`` natively (one kernel call: beam, shortlist, exact
    re-rank) against its reference executor (the Python recipe over
    ``beam_search``).  ADC sums are bit-identical on both, so
    the beams and shortlists are the same; only the exact float32 sums
    round differently."""

    @PROPERTY
    @given(worlds(duplicates=True), st.integers(1, 60), deadlines())
    def test_one_query_matches_reference(self, world, budget, deadline_kind):
        """A lone search's walk: each query a block of one at width 1.
        Its worlds may hold duplicate edges (the wide round and
        ``beam_search`` score a duplicate differently by design, see
        ``beam_search``)."""
        dc, view, entries, barred, k, ef, queries = world
        adc = _codes_for(dc)
        engine = _engine_pair(adc, view, entries, barred, 1)
        for query in queries:
            q = dc.prepare_query(query)
            deadline = as_deadline(deadline_kind)

            def run():
                dc.reset_ndc()
                [result], scored, exact, _ = rerank_block(
                    engine, adc, dc, query[None], k, ef, budget,
                    lambda: barred, deadline)
                return result, scored, exact, dc.reset_ndc()

            with reference_executor():
                want = run()
            got = run()
            if got[0].executor == "reference":
                # A duplicate edge scored twice overflows the kernel's
                # scratch; the search is handed back, as in the exact case.
                assert any(len(set(row)) < len(row) for row in (
                    view.neighbors(u).tolist() for u in range(dc.size)))
                continue
            _same_recipe(want, got, dc, q)
            if barred:
                assert not set(got[0].ids.tolist()) & barred

    @PROPERTY
    @given(worlds(duplicates=False), st.sampled_from([1, 4, 8]),
           st.integers(1, 60), deadlines())
    def test_block_matches_reference(self, world, width, budget,
                                     deadline_kind):
        dc, view, entries, barred, k, ef, queries = world
        adc = _codes_for(dc)
        engine = _engine_pair(adc, view, entries, barred, width)
        qmat = dc.prepare_queries(queries)

        def run():
            dc.reset_ndc()
            results, scored, exact, _ = rerank_block(
                engine, adc, dc, queries, k, ef, budget, lambda: barred,
                as_deadline(deadline_kind))
            return results, scored, exact, dc.reset_ndc()

        with reference_executor():
            want = run()
        got = run()
        assert want[1:] == got[1:]
        for a, b, q in zip(want[0], got[0], qmat):
            _same_recipe((a, 0), (b, 0), dc, q)
            if barred:
                assert not set(b.ids.tolist()) & barred

    def test_edgeless_excluded_entry_takes_the_fallback_scan(self):
        """The beam scores one (barred) node and stops: the shortlist is
        empty and the Python fallback scan answers, on both executors."""
        rng = np.random.default_rng(9)
        dc = DistanceComputer(rng.standard_normal((30, 6)), "l2")
        view = csr_graph([[] if u == 0 else [(u + 1) % 30] for u in range(30)])
        adc = _codes_for(dc)
        q = dc.prepare_query(rng.standard_normal(6))
        engine = _engine_pair(adc, view, unique_entries([0]), {0}, 4)

        def call():
            return rerank_block(engine, adc, dc, q[None], 5, 10, 8,
                                lambda: {0})[:3]

        with reference_executor():
            want = call()
        got = call()
        assert want[1:] == got[1:] == (1 + 30, 8)
        [a], [b] = want[0], got[0]
        assert (a.executor, b.executor) == ("reference", "native")
        assert b.ids.size == 5 and 0 not in b.ids.tolist()
        assert tie_tolerant_equal(a, b, dc, q)

    @pytest.mark.parametrize("on_native", [True, False])
    def test_ids_excluded_after_traversal_never_surface(self, tiny_ds,
                                                        on_native):
        """``rerank_block`` asks the live exclusion set after traversal; a
        row whose native top-k meets an id barred since is searched again
        and re-ranked by the reference recipe."""
        dc = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        index = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40)
        view = index.adjacency.freeze()
        adc = ADCComputer(dc, ProductQuantizer(m=4, ks=16, metric=dc.metric))
        entries = unique_entries([index.medoid()])
        engine = _engine_pair(adc, view, entries, None, 4)
        queries = tiny_ds.test_queries[:12]
        executor = (contextlib.nullcontext if on_native
                    else reference_executor)
        with executor():
            first = rerank_block(engine, adc, dc, queries, 10, 40, 40,
                                 lambda: None)[0]
            late = {int(r.ids[i]) for r in first for i in (0, 3)}
            results, scored, exact, _ = rerank_block(
                engine, adc, dc, queries, 10, 40, 40, lambda: late)
            with reference_executor():
                want = rerank_block(engine, adc, dc, queries, 10, 40, 40,
                                    lambda: late)
        for got, ref in zip(results, want[0]):
            assert got.ids.size == 10 and got.rerank is None
            assert not set(got.ids.tolist()) & late
            np.testing.assert_array_equal(got.ids, ref.ids)
            np.testing.assert_array_equal(got.distances, ref.distances)
        # Natively every row met an id of its own first answer, so every
        # row was searched twice; the re-rank itself was the reference's.
        assert exact == want[2]
        assert scored == want[1] * (2 if on_native else 1)

    def test_compressed_store_stays_native(self, tiny_ds):
        """A compressed store's search and search_batch never fall back: a
        silent fallback fails here, not on the benchmark."""
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3, compressed=True,
                            pq_m=4, pq_ks=16, rerank=40)
        store.add(tiny_ds.base)
        store.build()
        OBS.enable()
        try:
            OBS.reset()
            for q in tiny_ds.test_queries[:10]:
                store.search(q, k=10, ef=40)
            results = store.searcher.search_batch(tiny_ds.test_queries, 10, 40)
            snapshot = OBS.snapshot()
        finally:
            OBS.disable()
            OBS.reset()
            store.close()
        assert all(r.executor == "native" and r.rerank[0] > 0
                   for r in results)
        assert snapshot["search_native_queries"] >= 10 + 40
        assert snapshot["search_native_fallbacks"] == 0

    def test_overlay_patches_and_tombstones(self, tiny_ds):
        """A compressed store under add / delete / observe: the pinned view
        carries an overlay patch and tombstones, and its searches are the
        reference recipe's on both traversal shapes — ids, distances and
        the searcher's counters."""
        rng = np.random.default_rng(12)
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, merge_every=10_000,
                            seed=3, compressed=True, pq_m=4, pq_ks=16,
                            rerank=30)
        live = list(store.add(tiny_ds.base[:300]))
        store.build()
        for step, row in enumerate(tiny_ds.base[300:340]):
            live.extend(store.add(row[None, :]))
            if step % 3 == 0:
                store.delete([live.pop(int(rng.integers(len(live))))])
            if step % 5 == 0:
                store.observe(tiny_ds.train_queries[step])
        with store.epochs.pin() as pin:
            assert pin.view.native_graph().patch is not None
            assert pin.view.excluded()
        searcher, dc = store.searcher, store.dc
        queries = tiny_ds.test_queries[:16]

        def run(call):
            counters0 = (searcher.adc_scored, searcher.rerank_ndc, dc.ndc)
            results = call()
            return results, tuple(np.subtract(
                (searcher.adc_scored, searcher.rerank_ndc, dc.ndc),
                counters0))

        for call in (lambda: [searcher.search(q, 10, 40) for q in queries],
                     lambda: searcher.search_batch(queries, 10, 40)):
            with reference_executor():
                want, spent_want = run(call)
            got, spent_got = run(call)
            assert spent_want == spent_got
            for a, b, query in zip(want, got, queries):
                q = dc.prepare_query(query)
                _same_recipe((a, 0), (b, 0), dc, q)
        store.close()


@needs_native
class TestRerankKernel:
    """The re-rank stage of ``native.beam_block`` at its edges, against the
    same beam's collected scored set re-ranked by hand."""

    @pytest.fixture(params=["distinct", "each row four times"])
    def world(self, request):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((40, 6))
        if request.param != "distinct":  # ties in ADC *and* exact distance
            rows = np.repeat(rows[:10], 4, axis=0)
        dc = DistanceComputer(rows, "ip")
        view = csr_graph([rng.choice(40, size=5, replace=False).tolist()
                          for _ in range(40)])
        adc = _codes_for(dc)
        qmat = dc.prepare_queries(rng.standard_normal((3, 6)))
        adc.begin_block(qmat)
        return dc, view.native_graph(), adc.native_scorer(qmat), qmat

    @staticmethod
    def _run(world, k, mask=None, rerank=None, collect=False):
        dc, graph, scorer, _ = world
        return native.beam_block(graph, scorer, unique_entries([0]), None, k,
                                 12, 1, np.zeros(40, dtype=np.int32), 1, mask,
                                 None, collect, rerank)

    @pytest.mark.parametrize("budget", [1, 2, 7, 39, 40, 41, 10**6])
    def test_budget_one_to_past_n(self, world, budget):
        dc, _, _, qmat = world
        traced = self._run(world, 5, collect=True)
        got = self._run(world, 5, rerank=(dc.native_scorer(qmat), budget))
        for r, (row, want) in enumerate(zip(got, traced)):
            ids, d, scored, scored_d = row[0], row[1], want[6], want[7]
            shortlist = scored[np.lexsort((scored, scored_d))][:budget]
            exact = dc.to_query(shortlist, qmat[r])
            order = np.argsort(exact, kind="stable")[:5]
            assert row[8] == shortlist.size == min(budget, want[4])
            assert row[2:6] == want[2:6]           # the same beam
            np.testing.assert_array_equal(ids, shortlist[order])
            np.testing.assert_allclose(d, exact[order], rtol=1e-6,
                                       atol=1e-6)

    def test_empty_shortlist(self, world):
        dc, _, _, qmat = world
        rows = self._run(world, 5, mask=np.ones(40, dtype=np.uint8),
                         rerank=(dc.native_scorer(qmat), 10))
        for ids, d, *_, shortlist, _seconds in rows:
            assert shortlist == 0 and ids.size == d.size == 0

    def test_a_shortlisted_id_past_the_exact_rows_is_refused(self, world):
        dc, _, _, qmat = world
        kind, rows = dc.native_rows()
        short = native.Scorer(kind, rows[:10]), qmat
        assert self._run(world, 5, rerank=(short, 40)) is None
        wrong_rows = dc.native_rows(), qmat[:2]
        assert self._run(world, 5, rerank=(wrong_rows, 40)) is None


# -- the mutable graph: the slab read in place ----------------------------------

@needs_native
class TestMutableGraph:
    @PROPERTY
    @given(worlds(duplicates=False), st.booleans())
    def test_matches_reference_over_the_live_store(self, world, collect):
        dc, view, entries, barred, k, ef, queries = world
        store = store_of(view, dc.size)
        visited = VisitedTable(1)  # grown by the search
        for query in queries:
            q = dc.prepare_query(query)
            dc.reset_ndc()
            want = _reference_row(lambda ids: dc.to_query(ids, q),
                                  store.neighbors, entries, k, ef, 1,
                                  VisitedTable(dc.size), barred, None,
                                  collect)
            ndc_want = dc.reset_ndc()
            got = greedy_search(dc, store, entries, q, k, ef, visited, barred,
                                collect, prepared=True)
            assert got.executor == "native"
            assert tie_tolerant_equal(want, got, dc, q,
                                      ndc=(ndc_want, dc.reset_ndc()))
        # Mutate in place, search again through the same spec.  A base edge
        # 0 -> n-1 beside an extra edge 0 -> n-1 supersedes it: node 0's row
        # never holds a node twice, so the kernel never refuses it.
        spec = store.native_graph()
        store.add_base_edge(0, dc.size - 1)
        store.remove_node_edges({int(entries[0])})
        assert store.native_graph() is spec
        q = dc.prepare_query(queries[0])
        want = _reference_row(lambda ids: dc.to_query(ids, q),
                              store.neighbors, entries, k, ef, 1,
                              VisitedTable(dc.size), barred, None, False)
        got = greedy_search(dc, store, entries, q, k, ef, visited, barred,
                            prepared=True)
        assert got.executor == "native"
        assert tie_tolerant_equal(want, got, dc, q)

    def test_index_search_batch_matches_the_sequential_reference(
            self, shared_hnsw, tiny_ds):
        """A built index's batched search walks its live slab natively,
        every row, and is the sequential reference loop over
        ``adjacency.neighbors`` (a bound callable: the Python executor):
        the same ids, hops and NDC, distances to float32 rounding."""
        index, dc = shared_hnsw, shared_hnsw.dc
        queries = np.concatenate([tiny_ds.test_queries,
                                  tiny_ds.train_queries])
        for batch_size in (16, 64):
            got = index.search_batch(queries, 10, 100, batch_size=batch_size)
            for query, row in zip(queries, got, strict=True):
                assert row.executor == "native"
                q = dc.prepare_query(query)
                want = greedy_search(dc, index.adjacency.neighbors,
                                     index.entry_points(q), q, 10, 100,
                                     prepared=True)
                assert want.executor == "reference"
                assert tie_tolerant_equal(want, row, dc, q,
                                          ndc=(want.ndc, row.ndc))

    def test_a_spec_taken_before_a_grow_is_stale_never_dangling(self):
        rng = np.random.default_rng(4)
        dc = DistanceComputer(rng.standard_normal((4, 5)), "l2")
        store = AdjacencyStore(4)
        for u in range(4):
            store.set_base_neighbors(u, [(u + 1) % 4, (u + 2) % 4])
        stale = store.native_graph()
        held = (stale.slab, stale.degree)
        for row in rng.standard_normal((60, 5)):   # several regrows
            new = dc.append(row)
            store.grow(1)
            store.set_base_neighbors(new, list(range(max(0, new - 12), new)))
            store.add_base_edge(new - 1, new)      # and rows past the width
        assert store._slab is not held[0] and store._degree is not held[1]
        assert (stale.slab, stale.degree) == held  # the spec owns its arrays
        assert stale.slab.shape[0] < dc.size
        q = dc.prepare_queries(rng.standard_normal((1, 5)))
        scorer = dc.native_scorer(q)
        stamps = np.zeros(dc.size, dtype=np.int32)
        old = native.beam_block(stale, scorer, unique_entries([0]), None, 3,
                                8, 1, stamps, 1, None, None, False)
        assert old is not None and set(old[0][0].tolist()) <= {0, 1, 2, 3}
        # A node the stale spec has no row for: refused, not read.
        assert native.beam_block(stale, scorer, unique_entries([40]), None,
                                 3, 8, 1, stamps, 2, None, None,
                                 False) is None
        fresh = greedy_search(dc, store, [40], q[0], 3, 8, prepared=True)
        assert fresh.executor == "native" and fresh.ids.size == 3

    def test_a_degree_past_the_row_is_refused(self):
        rng = np.random.default_rng(5)
        dc = DistanceComputer(rng.standard_normal((6, 3)), "l2")
        store = AdjacencyStore(6)
        for u in range(6):
            store.set_base_neighbors(u, [(u + 1) % 6])
        q = dc.prepare_query(rng.standard_normal(3))
        assert greedy_search(dc, store, [0], q, 2, 4,
                             prepared=True).executor == "native"
        for corrupt in (store._slab.shape[1] + 1, -1):
            store._degree[2] = corrupt
            stamps = np.zeros(6, dtype=np.int32)
            # The kernel hands the search back instead of reading past the
            # row; the reference executor's slice cannot leave it either.
            assert native.beam_block(
                store.native_graph(), dc.native_scorer(q[None]),
                unique_entries([0]), None, 2, 4, 1, stamps, 1, None, None,
                False) is None
            assert greedy_search(dc, store, [0], q, 2, 4,
                                 prepared=True).executor == "reference"
        assert native.Graph.mutable(store._slab[:, ::2], store._degree,
                                    6) is None
        assert native.Graph.mutable(store._slab, store._degree, 7) is None
        assert native.Graph.mutable(store._slab.astype(np.int64),
                                    store._degree, 6) is None

    def test_build_and_inserts_across_regrows_match_the_reference(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((90, 7)).astype(np.float32)

        def build():
            index = HNSW(data[:20], "cosine", M=6, ef_construction=20)
            for row in data[20:]:          # 20 -> 90 rows: two doublings
                index.insert(row)
            return index

        got = build()
        with reference_executor():
            want = build()
        assert got.adjacency._slab.shape[0] >= 90
        queries = rng.standard_normal((20, 7)).astype(np.float32)
        same = [np.array_equal(got.search(q, 5, 30).ids,
                               want.search(q, 5, 30).ids) for q in queries]
        assert np.mean(same) >= 0.9   # a near-tie may move an edge


# -- the prune kernel -------------------------------------------------------------

@needs_native
class TestPruneKernel:
    @pytest.fixture
    def dc(self):
        return DistanceComputer(
            np.random.default_rng(8).standard_normal((30, 6)), "ip")

    def _pool(self, dc, ids):
        ids = np.asarray(ids, dtype=np.int64)
        d_u = dc.many_between(ids, 0).astype(np.float64)
        order = np.lexsort((ids, d_u))
        return ids[order], d_u[order]

    def test_empty_pool_pool_of_one_and_budget_past_the_pool(self, dc):
        kind, rows = dc.native_rows()
        none = np.empty(0, dtype=np.int64)
        assert native.occlusion_prune(kind, rows, none,
                                      np.empty(0), 4) == []
        assert rng_prune(dc, 0, [], 4) == []
        ids, d_u = self._pool(dc, [7])
        assert native.occlusion_prune(kind, rows, ids, d_u, 4) == [7]
        ids, d_u = self._pool(dc, range(1, 30))
        for budget in (1, 5, 29, 30, 10**6):
            got = native.occlusion_prune(kind, rows, ids, d_u, budget)
            assert got == _occlusion_prune(dc, ids, d_u, budget)
            assert 1 <= len(got) <= min(budget, 29) and got[0] == ids[0]

    def test_an_id_outside_the_rows_is_refused(self, dc):
        kind, rows = dc.native_rows()
        for bad in (30, -1, 2**40):
            ids = np.array([3, bad, 5], dtype=np.int64)
            assert native.occlusion_prune(kind, rows, ids, np.zeros(3),
                                          4) is None


# -- epoch views: overlay patches, post-horizon nodes, tombstones -------------

def _view_searches(store, queries, k, ef):
    """native(view) and reference(same pinned view) for every query."""
    dc = store.dc
    visited = VisitedTable(dc.size)
    with store.epochs.pin() as pin:
        view = pin.view
        for query in queries:
            q = dc.prepare_query(query)
            entries = unique_entries([pin.epoch.entry])
            dc.reset_ndc()
            want = _reference_row(lambda ids: dc.to_query(ids, q), view,
                                  entries, k, ef, 1, visited,
                                  view.excluded(), None, True)
            ndc_want = dc.reset_ndc()
            got = greedy_search(dc, view, entries, q, k, ef, visited,
                                view.excluded(), True, prepared=True)
            yield want, got, (ndc_want, dc.reset_ndc()), q


@needs_native
class TestEpochViews:
    def test_store_interleave(self, tiny_ds):
        """add / delete / observe / merge_now in a seeded shuffle; after
        every step the pinned view searches the same on both executors."""
        rng = np.random.default_rng(11)
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, merge_every=10_000,
                            seed=3)
        ids = store.add(tiny_ds.base[:300])
        store.build()
        queries = tiny_ds.test_queries[:6]
        live = list(ids)
        spare = iter(tiny_ds.base[300:])
        saw_patch = saw_horizon = saw_tombstone = False
        for step in range(40):
            op = rng.choice(["add", "delete", "observe", "merge"],
                            p=[0.35, 0.3, 0.25, 0.1])
            if op == "add":
                live.extend(store.add(next(spare)[None, :]))
            elif op == "delete" and len(live) > 50:
                store.delete([live.pop(int(rng.integers(len(live))))])
            elif op == "observe":
                store.observe(tiny_ds.train_queries[step % 80])
            else:
                store.scheduler.merge_now()
            for want, got, ndc, q in _view_searches(store, queries, 10, 30):
                assert got.executor == "native"
                assert tie_tolerant_equal(want, got, store.dc, q, ndc=ndc)
            with store.epochs.pin() as pin:
                graph = pin.view.native_graph()
                saw_patch |= graph.patch is not None
                saw_horizon |= (graph.patch is not None and
                                graph.patch[0].shape[0] > pin.epoch.n_nodes)
                saw_tombstone |= bool(pin.view.overlay.tombstones_at(
                    pin.view.seq))
        assert saw_patch and saw_horizon and saw_tombstone

    def test_prefix_is_shared_between_views_and_rebuilt_after_a_write(
            self, tiny_ds):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3)
        store.add(tiny_ds.base[:200])
        store.build()
        with store.epochs.pin() as a, store.epochs.pin() as b:
            assert a.view.native_graph() is b.view.native_graph()
            assert a.view.excluded() is b.view.excluded()
            before = a.view.native_graph()
        store.delete([5])
        with store.epochs.pin() as c:
            after = c.view.native_graph()
            assert after is not before
            assert after.excluded_mask[5] == 1
            assert after.mask_for(c.view.excluded()) is after.excluded_mask

    def test_serving_search_reports_executor_and_hops(self, tiny_ds):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3, compressed=True,
                            pq_m=4, pq_ks=16)
        store.add(tiny_ds.base[:300])
        store.build()
        OBS.enable()
        try:
            TRACES.clear()
            result = store.searcher.search(tiny_ds.test_queries[0], k=5,
                                           ef=30)
            trace = TRACES.recent(1)[0]
        finally:
            OBS.disable()
            OBS.reset()
        assert result.executor == trace.executor == "native"
        assert result.n_hops == trace.n_hops > 0


# -- visited versions and threads ---------------------------------------------

class TestVisitedVersions:
    def test_reserve_survives_the_int32_wrap(self):
        table = VisitedTable(16)
        table._version = np.iinfo(np.int32).max - 3
        table._stamps[:] = table._version      # stale marks everywhere
        first = table.reserve(8)
        assert first == 1 and table._version == 8
        assert not table._stamps.any()
        table.next_epoch()
        assert table._version == 9

    @needs_native
    def test_a_block_of_eight_across_the_wrap(self):
        rng = np.random.default_rng(2)
        dc = DistanceComputer(rng.standard_normal((40, 6)), "l2")
        view = csr_graph([rng.choice(40, size=5, replace=False).tolist()
                          for _ in range(40)])
        qmat = dc.prepare_queries(rng.standard_normal((8, 6)))
        engine = BatchSearchEngine(dc, view, lambda q: [0],
                                   graph_fn=lambda: view, batch_size=8)
        want = engine.search_batch(qmat, 5, 12, prepared=True)
        engine._visited._version = np.iinfo(np.int32).max - 3
        got = engine.search_batch(qmat, 5, 12, prepared=True)
        assert engine._visited._version == 8
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_two_threads_share_one_searcher(self, tiny_ds):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3)
        store.add(tiny_ds.base)
        store.build()
        queries = np.resize(tiny_ds.test_queries, (500, tiny_ds.base.shape[1]))
        want = [store.search(q, k=10, ef=40) for q in queries]
        outcomes: dict[int, list] = {}

        def worker(slot):
            outcomes[slot] = [store.search(q, k=10, ef=40) for q in queries]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for slot in range(2):
            for a, b in zip(want, outcomes[slot]):
                ids = [hit[0] for hit in b]
                assert len(set(ids)) == len(ids) == 10
                assert b == a


# -- observability --------------------------------------------------------------

class TestObservability:
    def test_status_shape(self):
        status = native.status()
        assert set(status) == {"enabled", "path", "compiler", "flags",
                               "reason"}
        assert status["enabled"] == native.enabled()
        assert (status["reason"] is None) == status["enabled"]

    def test_store_stats_and_cluster_merge(self, tiny_ds):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3)
        store.add(tiny_ds.base[:100])
        store.build()
        mine = store.stats()["searcher"]["native"]
        assert mine == native.status()
        other = dict(mine, enabled=False, reason="no C compiler on PATH")
        on = merge_stats([{"searcher": {"native": dict(mine, enabled=True)}},
                          {"searcher": {"native": dict(mine, enabled=True)}}])
        mixed = merge_stats([{"searcher": {"native": dict(mine, enabled=True)}},
                             {"searcher": {"native": other}}])
        assert on["searcher"]["native"]["enabled"] is True
        assert mixed["searcher"]["native"]["enabled"] is False

    def test_counters_name_the_executor_and_the_fallback_reason(self):
        rng = np.random.default_rng(3)
        dc = DistanceComputer(rng.standard_normal((20, 4)), "l2")
        view = csr_graph([[(u + 1) % 20] for u in range(20)])
        q = rng.standard_normal(4).astype(np.float32)
        OBS.enable()
        try:
            OBS.reset()
            greedy_search(dc, view, [0], q, 3, 8)
            greedy_search(dc, view.neighbors, [0], q, 3, 8)
            with reference_executor():
                greedy_search(dc, view, [0], q, 3, 8)
            snapshot = OBS.snapshot()
        finally:
            OBS.disable()
            OBS.reset()
        native_on = int(native.enabled())
        assert snapshot["search_native_queries"] == native_on
        assert snapshot["search_native_fallbacks"] == 3 - native_on
        assert snapshot["search_native_fallback_graph"] == native_on
        assert snapshot["search_native_fallback_unavailable"] == (
            3 - 2 * native_on)

    def test_catalog_lists_the_metrics(self):
        catalog = (pathlib.Path(SRC).parent / "docs"
                   / "observability.md").read_text()
        for name in ("search_native_enabled", "search_native_queries_total",
                     "search_native_fallbacks_total",
                     "search_native_fallback_unavailable_total",
                     "search_native_fallback_scorer_total",
                     "search_native_fallback_graph_total",
                     "search_native_fallback_rejected_total"):
            assert name in catalog


# -- the entry points: layouts, fresh arrays, cached specs, leaks ----------------

REFUSED = object()   # the call must answer None


@needs_native
class TestEntryPoints:
    """What the C entry points accept.  Every layout the kernel does not read
    is refused (None) or raises TypeError / ValueError — never a crash."""

    @pytest.fixture
    def world(self):
        rng = np.random.default_rng(21)
        dc = DistanceComputer(rng.standard_normal((40, 6)), "l2")
        view = csr_graph([rng.choice(40, size=5, replace=False).tolist()
                          for _ in range(40)])
        qmat = dc.prepare_queries(rng.standard_normal((3, 6)))
        return dc, view.native_graph(), dc.native_scorer(qmat), qmat

    @staticmethod
    def _block(world, **changes):
        dc, graph, scorer, qmat = world
        args = dict(graph=graph, scorer=scorer, entries=unique_entries([0, 1]),
                    offsets=None, k=5, ef=12, width=1,
                    stamps=np.zeros(40, dtype=np.int32), version0=1, mask=None,
                    deadline=None, collect=False, rerank=None)
        args.update(changes)
        return native.beam_block(*args.values())

    @staticmethod
    def _outcome(call):
        try:
            return REFUSED if call() is None else "answered"
        except (TypeError, ValueError) as exc:
            return type(exc)

    def test_beam_block_refuses_what_the_kernel_does_not_read(self, world):
        dc, graph, _, qmat = world
        rows = dc.native_rows()
        wide = np.repeat(qmat, 2, axis=1)
        offsets = np.array([0, 1, 2, 2], dtype=np.int64)
        read_only = np.zeros(40, dtype=np.int32)
        read_only.flags.writeable = False

        def slab_graph(**arrays):
            return _with(native.Graph.mutable(
                np.zeros((40, 8), dtype=np.int32),
                np.zeros(40, dtype=np.int32), 40), **arrays)

        cases = {
            "float64 queries": dict(scorer=(rows, qmat.astype(np.float64))),
            "strided queries": dict(scorer=(rows, wide[:, ::2])),
            "1-d queries": dict(scorer=(rows, qmat[0])),
            "queries of another dim": dict(scorer=(rows, qmat[:, :4].copy())),
            "float64 rows": dict(scorer=(native.Scorer(
                native.L2, rows.rows.astype(np.float64)), qmat)),
            "fortran rows": dict(scorer=(native.Scorer(
                native.L2, np.asfortranarray(rows.rows)), qmat)),
            "short stamps": dict(stamps=np.zeros(39, dtype=np.int32)),
            "int64 stamps": dict(stamps=np.zeros(40, dtype=np.int64)),
            "read-only stamps": dict(stamps=read_only),
            "int32 entries": dict(entries=np.array([0, 1], dtype=np.int32)),
            "2-d entries": dict(entries=np.array([[0, 1]], dtype=np.int64)),
            "offsets of another row count": dict(offsets=offsets[:3]),
            "offsets past the entries": dict(
                offsets=np.array([0, 1, 2, 3], dtype=np.int64)),
            "offsets going back": dict(
                offsets=np.array([0, 2, 1, 2], dtype=np.int64)),
            "bool mask": dict(mask=np.zeros(40, dtype=bool)),
            "float64 indptr": dict(graph=native.Graph(
                graph.indptr.astype(np.float64), graph.indices)),
            "strided slab": dict(graph=slab_graph(
                slab=np.zeros((40, 16), dtype=np.int32)[:, ::2])),
            "a slab row count past the degrees": dict(graph=slab_graph(
                degree=np.zeros(39, dtype=np.int32))),
            "a patch of the wrong shape": dict(graph=native.Graph(
                graph.indptr, graph.indices, patch=(graph.indptr,))),
            "re-rank rows of another count": dict(
                rerank=(dc.native_scorer(qmat[:2]), 10)),
            "re-rank by ADC": dict(rerank=((native.Scorer(
                native.ADC, np.zeros((40, 2), dtype=np.uint8)),
                np.zeros((3, 2, 4))), 10)),
        }
        raising = {
            "a spec without queries": (dict(scorer=rows), TypeError),
            "an unknown kind": (dict(scorer=(native.Scorer(9, rows.rows),
                                             qmat)), ValueError),
            "k of 0": (dict(k=0), ValueError),
            "beam width of 0": (dict(width=0), ValueError),
            "a version past int32": (dict(version0=2**31 - 2), ValueError),
            "a negative budget": (dict(rerank=(dc.native_scorer(qmat), -1)),
                                  ValueError),
            "a float k": (dict(k=5.0), TypeError),
        }
        for name, changes in cases.items():
            assert self._outcome(lambda: self._block(world, **changes)) \
                is REFUSED, name
        for name, (changes, error) in raising.items():
            assert self._outcome(lambda: self._block(world, **changes)) \
                is error, name
        assert self._block(world) is not None     # the baseline is answered

    def test_prune_and_eh_refuse_what_the_kernel_does_not_read(self, world):
        dc, graph, _, _ = world
        kind, rows = dc.native_rows()
        ids = np.arange(1, 9, dtype=np.int64)
        margin = np.zeros(8)
        prune = {
            "float64 rows": (kind, rows.astype(np.float64), ids, margin, 4),
            "int32 ids": (kind, rows, ids.astype(np.int32), margin, 4),
            "strided ids": (kind, rows, np.arange(1, 17)[::2], margin, 4),
            "2-d ids": (kind, rows, ids[None], margin, 4),
            "a short margin": (kind, rows, ids, margin[:7], 4),
            "float32 margin": (kind, rows, ids, margin.astype(np.float32), 4),
        }
        for name, args in prune.items():
            assert self._outcome(lambda: native.occlusion_prune(*args)) \
                is REFUSED, name
        assert self._outcome(lambda: native.occlusion_prune(
            native.ADC, rows, ids, margin, 4)) is ValueError
        assert self._outcome(lambda: native.occlusion_prune(
            kind, rows, ids, margin)) is TypeError
        nn = np.arange(6, dtype=np.int64)
        eh = {
            "float64 ids": (graph, nn.astype(np.float64), 3),
            "strided ids": (graph, np.arange(12)[::2], 3),
            "2-d ids": (graph, nn[None], 3),
            "k of 0": (graph, nn, 0),
            "k past the ids": (graph, nn, 7),
            "int64 indices": (native.Graph(
                graph.indptr, graph.indices.astype(np.int64)), nn, 3),
        }
        for name, args in eh.items():
            assert self._outcome(lambda: native.escape_hardness(*args)) \
                is REFUSED, name
        assert native.escape_hardness(graph, nn, 3).shape == (3, 3)

    @pytest.mark.parametrize("collect", [False, True])
    def test_answers_are_fresh_arrays(self, world, collect):
        dc, graph, scorer, qmat = world
        first = self._block(world, collect=collect)
        second = self._block(world, collect=collect, version0=10)
        arrays = [a for rows in (first, second) for row in rows
                  for a in (row[0], row[1], row[6], row[7]) if a is not None]
        assert len(arrays) == (24 if collect else 12)
        assert all(a.flags.owndata for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a[0], b[0])
        with_rerank = self._block(world, rerank=(dc.native_scorer(qmat), 8))
        again = self._block(world, rerank=(dc.native_scorer(qmat), 8),
                            version0=20)
        for a, b in zip(with_rerank, again):
            assert not np.shares_memory(a[0], b[0])

    def test_specs_are_cached_until_their_arrays_are_replaced(self):
        rng = np.random.default_rng(22)
        dc = DistanceComputer(rng.standard_normal((30, 8)), "ip")
        q = dc.prepare_queries(rng.standard_normal((2, 8)))
        rows = dc.native_rows()
        assert dc.native_scorer(q)[0] is rows and dc.native_rows() is rows
        dc.append(rng.standard_normal(8))
        grown = dc.native_rows()
        assert grown is not rows and grown.rows is dc.data
        assert grown.rows.shape[0] == 31
        adc = ADCComputer(dc, ProductQuantizer(m=2, ks=8, metric="ip"))
        adc.begin_block(q)
        spec, tables = adc.native_scorer(q)
        assert spec.rows is adc.codes and tables.shape == (2, 2, 8)
        assert adc.native_scorer(q)[0] is spec
        dc.append(rng.standard_normal(8))
        adc.begin_block(q)
        assert adc.native_scorer(q)[0].rows is adc.codes is not spec.rows

    def test_searches_leak_no_results_or_scratch(self, tiny_ds):
        store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                            M=8, ef_construction=40, seed=3)
        store.add(tiny_ds.base)
        store.build()
        queries = tiny_ds.test_queries
        for q in queries:                        # caches and lazy state
            store.search(q, k=10, ef=40)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000):
                store.search(queries[i % len(queries)], k=10, ef=40)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            store.close()
        assert grown < 1 << 20


def _with(graph, **arrays):
    """``graph`` with some of its arrays swapped (a hand-corrupted spec)."""
    for name, value in arrays.items():
        setattr(graph, name, value)
    return graph


# -- the loader -----------------------------------------------------------------

def _python(code: str, **env) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items() if k != native.SWITCH}
    environ.update(PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-W", "always", "-c",
                           textwrap.dedent(code)], env=environ,
                          capture_output=True, text=True, timeout=120)


SEARCH_ON_REFERENCE = """
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import numpy as np
        import repro
        from repro.graphs import native
        from repro.obs import OBS
    from repro import HNSW
    rng = np.random.default_rng(0)
    index = HNSW(rng.standard_normal((60, 4)).astype(np.float32), "l2", M=4,
                 ef_construction=10)
    OBS.enable()
    result = index.search(rng.standard_normal(4).astype(np.float32), k=3)
    counters = OBS.snapshot()
    print(native.status()["enabled"], "|", native.status()["reason"], "|",
          result.executor, len(result.ids),
          counters["search_native_fallback_unavailable"],
          sum("native traversal core" in str(w.message) for w in caught))
"""


class TestLoader:
    def test_no_compiler_on_path(self):
        done = _python(SEARCH_ON_REFERENCE, PATH="")
        assert done.returncode == 0, done.stderr
        enabled, reason, rest = [s.strip() for s in
                                 done.stdout.strip().split("|")]
        assert enabled == "False" and "no C compiler" in reason
        assert rest == "reference 3 1 1"   # answered, counted, warned once

    def test_switch_forces_the_reference_without_a_warning(self):
        done = _python(SEARCH_ON_REFERENCE, **{native.SWITCH: "1"})
        assert done.returncode == 0, done.stderr
        enabled, reason, rest = [s.strip() for s in
                                 done.stdout.strip().split("|")]
        assert enabled == "False" and native.SWITCH in reason
        assert rest == "reference 3 1 0"

    @needs_compiler
    def test_compile_error_is_a_reason_not_an_exception(self, tmp_path):
        garbage = tmp_path / "garbage.c"
        garbage.write_text("this is not C;\n")
        path, status = native.build(source=garbage, dirs=[tmp_path / "out"])
        assert path is None and not status["enabled"]
        assert status["reason"].startswith("compile failed")
        assert list((tmp_path / "out").iterdir()) == []   # no litter

    @needs_compiler
    def test_unwritable_cache_dirs(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        # A path under a regular file cannot be created by anyone, root
        # included (a 0500 directory would not stop root).
        path, status = native.build(dirs=[blocker / "cache"])
        assert path is None
        assert "no writable cache directory" in status["reason"]
        path, status = native.build(dirs=[blocker / "cache", tmp_path / "ok"])
        assert path is not None and path.parent == tmp_path / "ok"
        assert status["enabled"] and status["reason"] is None

    @needs_compiler
    def test_foreign_file_is_never_loaded(self, tmp_path, monkeypatch):
        path, _ = native.build(dirs=[tmp_path])
        monkeypatch.setattr(native, "_own", lambda p: False)
        again, status = native.build(dirs=[tmp_path])
        assert again is None and "no writable" in status["reason"]
        assert path.exists()

    @needs_compiler
    def test_two_processes_race_one_hash(self, tmp_path):
        code = f"""
            import pathlib
            from repro.graphs import native
            path, status = native.build(dirs=[pathlib.Path({str(tmp_path)!r})])
            assert native._import(path).beam_block is not None
            print(path.name, status["enabled"])
        """
        environ = dict(os.environ, PYTHONPATH=SRC)
        racers = [subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(code)], env=environ,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
        outputs = [r.communicate(timeout=120) for r in racers]
        assert all(r.returncode == 0 for r in racers), outputs
        assert len({out.strip() for out, _ in outputs}) == 1
        built = list(tmp_path.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"   # no temp left

    @needs_compiler
    def test_build_is_content_addressed(self, tmp_path):
        first, _ = native.build(dirs=[tmp_path])
        stamp = first.stat().st_mtime_ns
        second, _ = native.build(dirs=[tmp_path])
        assert second == first and second.stat().st_mtime_ns == stamp
        edited = tmp_path / "edited.c"
        edited.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
        third, _ = native.build(source=edited, dirs=[tmp_path])
        assert third is not None and third != first

    @needs_compiler
    def test_missing_python_headers_are_a_reason(self, tmp_path,
                                                 monkeypatch):
        real = sysconfig.get_paths
        monkeypatch.setattr(sysconfig, "get_paths", lambda *args, **kw: dict(
            real(*args, **kw), include=str(tmp_path),
            platinclude=str(tmp_path)))
        path, status = native.build(dirs=[tmp_path / "out"])
        assert path is None and not status["enabled"]
        assert "no Python headers" in status["reason"]
        assert "Python.h" in status["reason"]

    @needs_compiler
    def test_import_without_headers_runs_the_reference(self, tmp_path):
        # The include directory moves to an empty one before the import
        # builds: a new digest, nothing cached under it, no Python.h.
        hide_headers = f"""
            import sysconfig
            real = sysconfig.get_paths
            sysconfig.get_paths = lambda *args, **kw: dict(
                real(*args, **kw), include={str(tmp_path)!r},
                platinclude={str(tmp_path)!r})
        """
        done = _python(textwrap.dedent(hide_headers)
                       + textwrap.dedent(SEARCH_ON_REFERENCE))
        assert done.returncode == 0, done.stderr
        enabled, reason, rest = [s.strip() for s in
                                 done.stdout.strip().split("|")]
        assert enabled == "False" and "Python.h" in reason
        assert rest == "reference 3 1 1"   # answered, counted, warned once

    @staticmethod
    def _abi(monkeypatch, suffix: str) -> None:
        real = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
            suffix if name == "EXT_SUFFIX" else real(name)))

    @needs_compiler
    def test_digest_covers_the_abi_and_the_include_dirs(self, tmp_path,
                                                        monkeypatch):
        first, _ = native.build(dirs=[tmp_path])
        with monkeypatch.context() as patch:
            self._abi(patch, ".cpython-39-elsewhere.so")
            other_abi, _ = native.build(dirs=[tmp_path])
        dirs = native.include_dirs()
        (tmp_path / "more").mkdir()
        monkeypatch.setattr(native, "include_dirs",
                            lambda: [*dirs, str(tmp_path / "more")])
        other_dirs, _ = native.build(dirs=[tmp_path])
        assert other_abi.name.endswith(".cpython-39-elsewhere.so")
        assert len({first.name[:22], other_abi.name[:22],
                    other_dirs.name[:22]}) == 3   # "_beam-" + 16 hex digits

    @needs_compiler
    def test_a_library_for_another_abi_is_never_loaded(self, tmp_path,
                                                       monkeypatch):
        with monkeypatch.context() as patch:
            self._abi(patch, ".cpython-39-elsewhere.so")
            foreign, _ = native.build(dirs=[tmp_path])
        path, status = native.build(dirs=[tmp_path])
        assert path != foreign and status["enabled"]
        assert path.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
        assert sorted(tmp_path.iterdir()) == sorted([foreign, path])
        assert native._import(path).escape_hardness is not None
