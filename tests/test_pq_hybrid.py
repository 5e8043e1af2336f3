"""Compressed hot path: batched ADC traversal, exact re-rank, memmap tier.

Covers the PQ-resident serving pipeline end to end — the
:class:`~repro.quantization.adc.ADCComputer` block kernel, the compressed
:class:`~repro.store.VectorStore` serving mode and its mutation-safety
bugfixes (stale codes, regrown visited table, tombstoned entries), the
disk-resident ``np.memmap`` vector tier and its cold residency — plus
hypothesis properties tying :func:`~repro.quantization.rerank_block` on
hand-built worlds to its exact contract.
"""

from __future__ import annotations

import contextlib
import mmap
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distances import DistanceComputer, Metric
from repro.evalx import compute_ground_truth, evaluate_index, recall_per_query
from repro.graphs import HNSW, native
from repro.graphs.search import VisitedTable
from repro.quantization import (ADCComputer, ProductQuantizer,
                                fallback_shortlist, pq_greedy_search,
                                rerank_block)
from repro.store import VectorStore
from tests.conftest import adc_engine, reference_executor


def _recall(searcher, queries, gt, k=10, ef=80, batched=False):
    if batched:
        results = searcher.search_batch(queries, k, ef)
        found = np.stack([r.ids[:k] for r in results])
    else:
        found = np.stack(
            [searcher.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return float(recall_per_query(found, gt.top(k).ids).mean())


@pytest.fixture
def compressed_store(tiny_ds):
    store = VectorStore(dim=tiny_ds.base.shape[1], metric=tiny_ds.metric,
                        M=8, ef_construction=40, seed=3,
                        compressed=True, pq_ks=16, rerank=40)
    store.add(tiny_ds.base)
    store.build()
    yield store
    store.close()


# -- ADC block kernel ---------------------------------------------------------

class TestADCComputer:
    def test_block_tables_match_sequential(self, shared_hnsw, tiny_ds):
        """adc_tables(row b) is adc_table(queries[b]) bit for bit, for all
        three metrics: one formula, whichever path builds the table."""
        for metric in Metric:
            dc = DistanceComputer(tiny_ds.base, metric)
            pq = ProductQuantizer(m=4, ks=16, metric=metric, seed=0)
            pq.fit(dc.data)
            qmat = np.stack([dc.prepare_query(q)
                             for q in tiny_ds.test_queries[:6]])
            block = pq.adc_tables(qmat)
            assert block.shape == (6, pq.m, pq.ks)
            for b in range(6):
                np.testing.assert_array_equal(block[b],
                                              pq.adc_table(qmat[b]))

    def test_block_to_queries_matches_per_row_adc(self, shared_hnsw, tiny_ds):
        """The batched gather equals per-row adc_distances lookups."""
        adc = ADCComputer(shared_hnsw.dc)
        qmat = np.stack([shared_hnsw.dc.prepare_query(q)
                         for q in tiny_ds.test_queries[:4]])
        adc.begin_block(qmat)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, adc.size, size=32).astype(np.int64)
        owners = rng.integers(0, 4, size=32).astype(np.int64)
        got = adc.block_to_queries(ids, qmat, owners)
        tables = [adc.pq.adc_table(qmat[b]) for b in range(4)]
        want = np.array([
            adc.pq.adc_distances(adc.codes[i][None, :], tables[o])[0]
            for i, o in zip(ids, owners)])
        np.testing.assert_array_equal(got, want)  # both sum in subspace order
        assert adc.ndc == 32

    def test_sync_is_incremental(self, fresh_hnsw, rng):
        adc = ADCComputer(fresh_hnsw.dc)
        n0 = adc.codes.shape[0]
        fresh_hnsw.insert(rng.standard_normal(16).astype(np.float32))
        assert adc.sync() == 1
        assert adc.codes.shape[0] == n0 + 1
        assert adc.sync() == 0  # nothing new

    def test_sync_grows_by_doubling(self, tiny_ds, rng):
        """One-row syncs append into spare capacity: the code matrix is
        reallocated O(log n) times, never copied per insert, and the live
        part stays the dense uint8 matrix the native core reads."""
        dc = DistanceComputer(tiny_ds.base[:40], tiny_ds.metric)
        adc = ADCComputer(dc, ProductQuantizer(m=4, ks=16, metric=dc.metric))
        held = [adc._rows]
        for row in rng.standard_normal((200, 16)).astype(np.float32):
            dc.append(row)
            assert adc.sync() == 1
            if adc._rows is not held[-1]:
                held.append(adc._rows)
        assert adc.codes.shape == (240, 4) and len(held) <= 4
        assert adc.codes.flags.c_contiguous
        np.testing.assert_array_equal(adc.codes, adc.pq.encode(dc.data))
        qmat = dc.prepare_queries(tiny_ds.test_queries[:2])
        adc.begin_block(qmat)
        assert adc.native_scorer(qmat) is not None


# -- bugfix regressions -------------------------------------------------------

class TestMutationRegressions:
    def test_scalar_search_reports_its_hops(self, compressed_store, tiny_ds):
        """The compressed lone-query path once built its result without
        ``n_hops``, which blinded QueryTrace on it."""
        searcher = compressed_store.searcher
        for q in tiny_ds.test_queries[:5]:
            assert searcher.search(q, k=10, ef=40).n_hops > 0

    def test_mark_many_stamps_entries(self, shared_hnsw, tiny_ds):
        """satellite-2: entries go through VisitedTable.mark_many.

        A shared visited table must see the entry points as visited after
        the search (the old code wrote a private copy of the stamps, so a
        wrapped/observed table desynced).
        """
        adc = ADCComputer(shared_hnsw.dc)
        q = shared_hnsw.dc.prepare_query(tiny_ds.test_queries[0])
        table = adc.begin_query(q)

        class CountingTable(VisitedTable):
            marked: list = []

            def mark_many(self, ids):
                CountingTable.marked.append(np.array(ids, copy=True))
                super().mark_many(ids)

        visited = CountingTable(shared_hnsw.dc.size)
        entries = shared_hnsw.entry_points(q)
        ids, _, _ = pq_greedy_search(
            adc.pq, adc.codes, shared_hnsw.adjacency.neighbors,
            entries, table, k=10, ef=40, visited=visited)
        assert ids.size > 0
        assert CountingTable.marked, "entries bypassed mark_many"
        assert set(CountingTable.marked[0].tolist()) == set(entries)
        for e in entries:
            assert visited.is_visited(int(e))

    def test_reused_visited_table_grows_after_insert(self, compressed_store,
                                                     rng):
        """Rows added after a search are encoded and stamped: the same
        searcher's next search regrows its visited table instead of
        raising, and finds them."""
        q = rng.standard_normal(16).astype(np.float32)
        compressed_store.search(q, k=5, ef=30)
        added = compressed_store.add(
            q + 0.01 * rng.standard_normal((8, 16)).astype(np.float32))
        assert compressed_store.adc.codes.shape[0] == compressed_store.dc.size
        hits = compressed_store.search(q, k=5, ef=30)
        assert len(hits) == 5
        assert {h[0] for h in hits} <= set(added)

    def test_tombstoned_entry_navigates_but_never_surfaces(
            self, compressed_store, tiny_ds):
        """satellite-3: a deleted entry point still seeds traversal (a
        lazy delete leaves it the epoch entry), like greedy_search, but
        never surfaces."""
        q = tiny_ds.test_queries[0]
        entry = compressed_store.searcher.fixer.entry
        compressed_store.delete([entry])
        assert compressed_store.searcher.fixer.entry == entry
        hits = compressed_store.searcher.search(q, k=10, ef=60)
        batched = compressed_store.search_batch(q[None, :], 10, 60)[0]
        for result in (hits, batched):
            assert result.ids.size == 10
            assert entry not in result.ids.tolist()

    def test_all_excluded_falls_back_to_scan(self):
        """An edgeless excluded entry yields the ADC brute-force fallback,
        for a lone query's block of one and for a wide batch block."""
        rng = np.random.default_rng(5)
        data = rng.standard_normal((64, 8)).astype(np.float32)
        index = HNSW(data, Metric.L2, M=4, ef_construction=20)
        adc = ADCComputer(index.dc, ProductQuantizer(m=2, ks=16,
                                                     metric=Metric.L2, seed=0))
        entry = index.entry_points(data[0])[0]
        # Tombstone the entry AND strip its edges: the beam dies instantly.
        index.adjacency.tombstones.add(int(entry))
        index.adjacency.set_base_neighbors(int(entry), [])
        for batch_size, beam_width in ((1, 1), (32, 4)):
            [result], _, _, _ = rerank_block(
                adc_engine(index, adc, batch_size, beam_width), adc,
                index.dc, data[:1], 5, 20, 20,
                index.adjacency.excluded_ids)
            assert result.ids.size == 5
            assert int(entry) not in result.ids.tolist()

    @pytest.mark.parametrize("executor", ["native", "reference"])
    def test_block_counts_only_its_own_scorings(self, shared_hnsw, tiny_ds,
                                                executor):
        """``rerank_block`` used to return a delta of ``adc.ndc``, which
        every reader of the computer bumps: another thread's ADC scorings
        during the call were billed to this one.  It returns the sum of its
        rows' own counts."""
        if executor == "native" and not native.enabled():
            pytest.skip(f"no native executor: {native.status()['reason']}")
        adc = ADCComputer(shared_hnsw.dc)
        engine = adc_engine(shared_hnsw, adc, 8, 4)
        rows = []
        inner = engine.search_batch

        def search_batch(*args, **kwargs):
            adc.ndc += 10_000  # another reader, mid-call
            out = inner(*args, **kwargs)
            rows.extend(out)
            return out

        engine.search_batch = search_batch
        before = adc.ndc
        with (reference_executor() if executor == "reference"
              else contextlib.nullcontext()):
            results, n_scored, _, _ = rerank_block(
                engine, adc, shared_hnsw.dc, tiny_ds.test_queries[:12], 10,
                40, 40, shared_hnsw.adjacency.excluded_ids)
        assert {r.executor for r in results} == {executor}
        assert n_scored == sum(r.ndc for r in rows) > 0
        assert n_scored == adc.ndc - before - 10_000

    def test_fallback_shortlist_all_excluded_is_empty(self, shared_hnsw,
                                                      tiny_ds):
        adc = ADCComputer(shared_hnsw.dc)
        q = shared_hnsw.dc.prepare_query(tiny_ds.test_queries[0])
        table = adc.begin_query(q)
        everything = set(range(adc.size))
        assert fallback_shortlist(adc, table, everything, 10).size == 0
        top = fallback_shortlist(adc, table, None, 10)
        assert top.size == 10


# -- batched path parity and quality -----------------------------------------

class TestCompressedQuality:
    def test_batched_matches_sequential(self, compressed_store, tiny_ds):
        searcher = compressed_store.searcher
        queries = tiny_ds.test_queries[:16]
        seq = [searcher.search(q, k=10, ef=60) for q in queries]
        bat = searcher.search_batch(queries, k=10, ef=60, batch_size=8)
        agree = np.mean([
            len(set(s.ids.tolist()) & set(b.ids.tolist())) / 10
            for s, b in zip(seq, bat)])
        # Lone queries walk width 1, batches the configured beam: ADC
        # distance ties may be broken differently; near-total agreement.
        assert agree >= 0.9

    def test_recall_within_band_of_uncompressed(self, compressed_store,
                                                shared_hnsw, tiny_ds,
                                                tiny_gt):
        """Over re-rank budgets from tight to generous: recall clears a
        floor at 40, stays within a band of the exact search at 60, and
        never falls as the budget grows (the traversal does not depend on
        it, so a larger shortlist is a superset)."""
        searcher = compressed_store.searcher
        exact = _recall(shared_hnsw, tiny_ds.test_queries, tiny_gt)
        recalls = []
        for rerank in (15, 40, 60, 80):
            searcher.rerank = rerank
            recalls.append(_recall(searcher, tiny_ds.test_queries, tiny_gt,
                                   batched=True))
        assert recalls[1] > 0.6
        assert recalls[2] >= exact - 0.1
        assert recalls == sorted(recalls)

    def test_exact_ndc_collapses_to_rerank_budget(self, compressed_store,
                                                  tiny_ds, tiny_gt):
        searcher = compressed_store.searcher
        point = evaluate_index(searcher, tiny_ds.test_queries, tiny_gt,
                               k=10, ef=60, batch_size=8)
        assert point.ndc_per_query <= 40
        assert point.adc_per_query > point.ndc_per_query
        # counters rolled back by evaluate_index's delta bookkeeping aside,
        # the searcher's own counters moved
        assert searcher.rerank_ndc > 0
        # A lone query's full-precision touches are its re-rank too.
        compressed_store.dc.reset_ndc()
        searcher.search(tiny_ds.test_queries[0], k=10, ef=60)
        assert 0 < compressed_store.dc.reset_ndc() <= 40


# -- hypothesis properties ----------------------------------------------------

@st.composite
def pq_world(draw):
    n = draw(st.integers(40, 120))
    dim = draw(st.sampled_from([4, 8, 12]))
    seed = draw(st.integers(0, 2**16))
    metric = draw(st.sampled_from([Metric.L2, Metric.COSINE]))
    data = np.random.default_rng(seed).standard_normal(
        (n, dim)).astype(np.float32)
    n_tomb = draw(st.integers(0, 5))
    return data, metric, seed, n_tomb


class TestCompressedProperties:
    @settings(max_examples=15, deadline=None)
    @given(pq_world(), st.integers(1, 8))
    def test_rerank_is_exact_sorted_and_exclusion_safe(self, world, k):
        """Returned distances are the exact metric distances of the returned
        ids, sorted ascending, and tombstoned ids never surface."""
        data, metric, seed, n_tomb = world
        index = HNSW(data, metric, M=4, ef_construction=20)
        adc = ADCComputer(index.dc, ProductQuantizer(
            m=2, ks=min(16, data.shape[0] // 2), metric=metric, seed=0))
        rng = np.random.default_rng(seed + 1)
        tombs = set(int(t) for t in
                    rng.choice(data.shape[0], size=n_tomb, replace=False))
        index.adjacency.tombstones.update(tombs)
        query = rng.standard_normal(data.shape[1]).astype(np.float32)
        # A lone query's width-1 block of one, then a wide batch block.
        for engine in (adc_engine(index, adc), adc_engine(index, adc, 32, 4)):
            [result], _, _, _ = rerank_block(
                engine, adc, index.dc, query[None], k, 20, max(k, 10),
                index.adjacency.excluded_ids)
            assert result.ids.size > 0
            assert not (set(result.ids.tolist()) & tombs)
            prepared = index.dc.prepare_query(query)
            exact = index.dc.to_query(result.ids, prepared)
            np.testing.assert_allclose(result.distances, exact,
                                       rtol=1e-5, atol=1e-5)
            assert np.all(np.diff(result.distances) >= -1e-9)

    @settings(max_examples=10, deadline=None)
    @given(pq_world())
    def test_shortlist_subset_consistency(self, world):
        """Top-k of the re-rank equals the exact-distance top-k of the
        shortlist the traversal produced (re-rank adds no candidates)."""
        data, metric, seed, _ = world
        index = HNSW(data, metric, M=4, ef_construction=20)
        adc = ADCComputer(index.dc, ProductQuantizer(
            m=2, ks=min(16, data.shape[0] // 2), metric=metric, seed=0))
        query = np.random.default_rng(seed + 2).standard_normal(
            data.shape[1]).astype(np.float32)
        q = index.dc.prepare_query(query)
        table = adc.begin_query(q)
        shortlist, _, _ = pq_greedy_search(
            adc.pq, adc.codes, index.adjacency.neighbors,
            index.entry_points(q), table, k=15, ef=20)
        shortlist = shortlist[:15]
        [result], _, _, _ = rerank_block(
            adc_engine(index, adc), adc, index.dc, query[None], 5, 20, 15,
            index.adjacency.excluded_ids)
        exact = index.dc.to_query(shortlist, q)
        want = shortlist[np.argsort(exact, kind="stable")[:5]]
        assert set(result.ids.tolist()) <= set(shortlist.tolist())
        np.testing.assert_array_equal(np.sort(result.ids), np.sort(want))


# -- compressed serving (VectorStore) ----------------------------------------

@pytest.mark.timeout(120)
class TestCompressedServing:
    def test_recall_and_counters(self, compressed_store, tiny_ds, tiny_gt):
        results = compressed_store.search_batch(tiny_ds.test_queries, 10, 80)
        found = np.stack([r.ids[:10] for r in results])
        recall = float(recall_per_query(found, tiny_gt.top(10).ids).mean())
        assert recall >= 0.8
        stats = compressed_store.stats()["compressed"]
        assert stats["adc_scored"] > 0
        assert stats["rerank_ndc"] > 0
        assert stats["rerank"] == 40

    def test_matches_pq_rerank_searcher(self, compressed_store, tiny_ds):
        """Differential oracle: on a quiescent store the epoch-pinned
        serving path and the same recipe over the live slab —
        ``rerank_block`` on an engine walking the fixer's adjacency — are
        the same search: ids, distances and both counters, on either
        traversal shape (a batch's blocks, a lone query's width-1 block of
        one)."""
        searcher = compressed_store.searcher
        fixer, adc = searcher.fixer, searcher.adc
        queries = tiny_ds.test_queries

        def refer(blocks, batch_size, beam_width):
            engine = adc_engine(fixer, adc, batch_size, beam_width)
            runs = [rerank_block(engine, adc, fixer.dc, block, 10, 60,
                                 searcher.rerank,
                                 fixer.adjacency.excluded_ids)
                    for block in blocks]
            return ([r for results, *_ in runs for r in results],
                    np.array([sum(run[1] for run in runs),
                              sum(run[2] for run in runs)]))

        for serve, blocks, shape in (
                (lambda: compressed_store.search_batch(queries, 10, 60),
                 [queries], (32, searcher.beam_width)),
                (lambda: [searcher.search(q, 10, 60) for q in queries],
                 [q[None] for q in queries], (1, 1))):
            before = np.array([searcher.adc_scored, searcher.rerank_ndc])
            got = serve()
            spent = np.array([searcher.adc_scored,
                              searcher.rerank_ndc]) - before
            want, cost = refer(blocks, *shape)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g.ids, w.ids)
                np.testing.assert_array_equal(g.distances, w.distances)
            assert spent.all()
            np.testing.assert_array_equal(spent, cost)

    @pytest.mark.parametrize("beam_width", [1, 8])
    def test_beam_width_survives_apply_pq_and_recovery(self, tiny_ds,
                                                       tmp_path, beam_width):
        """A configured beam width is the one served after a codebook
        re-ship on a built store and after checkpoint -> recover()."""
        from repro.durability import recover
        store = VectorStore(dim=16, metric=tiny_ds.metric, M=8,
                            ef_construction=40, seed=3, compressed=True,
                            pq_ks=16, rerank=40, beam_width=beam_width,
                            wal_dir=tmp_path / "dur")
        store.add(tiny_ds.base)
        store.build()
        queries = tiny_ds.test_queries

        def served(s):
            assert s.searcher.beam_width == beam_width
            return [r.ids.tolist() for r in s.search_batch(queries, 10, 60)]

        before = served(store)
        store.apply_pq(store.adc.pq)
        assert served(store) == before
        store.checkpoint()
        store.close()
        recovered, report = recover(tmp_path / "dur")
        assert report.consistent
        assert served(recovered) == before
        recovered.apply_pq(recovered.adc.pq)
        assert served(recovered) == before
        recovered.close()

    def test_insert_delete_visibility(self, compressed_store, rng):
        """add -> search -> delete -> search: a row added after the build
        is encoded at once (no stale codes) and served by both paths, and
        its delete hides it from both immediately."""
        q = rng.standard_normal(16).astype(np.float32)
        [new_id] = compressed_store.add(q[None, :])
        assert compressed_store.adc.codes.shape[0] == compressed_store.dc.size
        hits = compressed_store.search(q, k=5, ef=60)
        assert hits[0][0] == new_id
        batched = compressed_store.search_batch(q[None, :], 5, 60)[0]
        assert new_id in batched.ids.tolist()
        compressed_store.delete([new_id])
        hits = compressed_store.search(q, k=5, ef=60)
        assert new_id not in [h[0] for h in hits]
        batched = compressed_store.search_batch(q[None, :], 5, 60)[0]
        assert new_id not in batched.ids.tolist()

    def test_deadline_degrades(self, compressed_store, tiny_ds):
        results = compressed_store.search_batch(
            tiny_ds.test_queries, 10, 200, deadline_ms=1e-4)
        assert any(r.degraded for r in results)
        # an expansive budget stays non-degraded
        results = compressed_store.search_batch(
            tiny_ds.test_queries[:4], 10, 40, deadline_ms=10_000)
        assert not any(r.degraded for r in results)


# -- memmap tier --------------------------------------------------------------

def _mapped_rss_bytes(path) -> int:
    """Resident bytes of this process's mappings of ``path`` (smaps)."""
    rss, want = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if str(path) in line:
                want = True
            elif want and line.startswith("Rss:"):
                rss += int(line.split()[1]) * 1024
                want = False
    return rss


def _evict_page_cache(path) -> None:
    """Drop ``path`` from the page cache: the file is cache-hot right after
    the spill write, and a minor fault maps every cache-resident neighbour
    page (fault-around), so without this serving would measure the cache."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


class TestMemmapTier:
    @pytest.mark.timeout(120)
    @pytest.mark.skipif(not (os.path.exists("/proc/self/smaps")
                             and hasattr(os, "posix_fadvise")),
                        reason="needs /proc/self/smaps and posix_fadvise")
    def test_cold_serving_pages_in_a_fraction_of_the_file(self, tmp_path):
        """The bigger-than-RAM claim: codes navigate, and only the re-rank
        shortlists page raw vector rows back in.

        A cluster-sorted corpus (a disk tier clusters its layout, so a
        local workload touches few pages) is served compressed from a
        memmap, remapped and evicted before serving; queries from two of
        sixteen clusters must leave under half the file resident, keep
        their recall, and never surface a deleted id."""
        rng = np.random.default_rng(7)
        n, dim, n_clusters = 1000, 384, 16
        centers = rng.normal(size=(n_clusters, dim)).astype(np.float32) * 4
        assign = np.sort(rng.integers(0, n_clusters, size=n))
        data = (centers[assign]
                + rng.normal(size=(n, dim))).astype(np.float32)
        # A re-rank budget past the query clusters' population would spray
        # page-ins across the whole file.
        store = VectorStore(dim, "l2", M=12, ef_construction=60,
                            compressed=True, pq_m=16, pq_ks=64,
                            rerank=n // n_clusters,
                            memmap_path=tmp_path / "vectors.vecs")
        # Deleted from a cluster no query comes from, so recall is
        # unaffected: they must never surface all the same.
        deleted = np.flatnonzero(assign == n_clusters - 1)[:8].tolist()
        queries = (centers[rng.integers(0, 2, size=64)]
                   + rng.normal(size=(64, dim))).astype(np.float32)
        gt = compute_ground_truth(data, queries, 10, "l2")
        try:
            store.add(data)
            store.build()
            store.delete(deleted)
            dc = store.dc
            assert dc.is_memmap
            file_bytes = dc.memmap_path.stat().st_size
            dc.remap()                  # a fresh mapping: nothing resident
            _evict_page_cache(dc.memmap_path)
            assert _mapped_rss_bytes(dc.memmap_path) <= 4 * mmap.PAGESIZE
            results = store.search_batch(queries, 10, 150)
            resident = _mapped_rss_bytes(dc.memmap_path)
        finally:
            store.close()
        assert resident < file_bytes // 2
        assert not any(set(deleted) & set(r.ids.tolist()) for r in results)
        found = np.stack([r.ids[:10] for r in results])
        assert recall_per_query(found, gt.ids).mean() >= 0.75

    def test_round_trip_distances(self, tiny_ds, tmp_path):
        a = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        b = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        b.use_memmap(tmp_path / "vecs.bin")
        assert b.is_memmap and not a.is_memmap
        assert b.vector_bytes == a.data.nbytes
        q = a.prepare_query(tiny_ds.test_queries[0])
        ids = np.arange(0, 50, dtype=np.int64)
        np.testing.assert_allclose(a.to_query(ids, q), b.to_query(ids, q),
                                   rtol=1e-6)

    def test_append_while_memmapped(self, tiny_ds, tmp_path, rng):
        dc = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        dc.use_memmap(tmp_path / "vecs.bin")
        n0 = dc.size
        extra = rng.standard_normal((3, 16)).astype(np.float32)
        dc.append(extra)
        assert dc.size == n0 + 3 and dc.is_memmap
        ref = DistanceComputer(np.vstack([tiny_ds.base, extra]),
                               tiny_ds.metric)
        q = dc.prepare_query(tiny_ds.test_queries[0])
        ids = np.arange(n0 - 2, n0 + 3, dtype=np.int64)
        np.testing.assert_allclose(dc.to_query(ids, q), ref.to_query(ids, q),
                                   rtol=1e-6)

    def test_from_memmap_reopens(self, tiny_ds, tmp_path):
        dc = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        dc.use_memmap(tmp_path / "vecs.bin")
        again = DistanceComputer.from_memmap(tmp_path / "vecs.bin",
                                             dim=16, metric=tiny_ds.metric)
        assert again.size == dc.size
        q = dc.prepare_query(tiny_ds.test_queries[0])
        ids = np.arange(0, 20, dtype=np.int64)
        np.testing.assert_allclose(dc.to_query(ids, q),
                                   again.to_query(ids, q), rtol=1e-6)

    def test_load_index_memmap_dir(self, shared_hnsw, tiny_ds, tmp_path):
        from repro.io import load_index, save_index
        path = save_index(shared_hnsw, tmp_path / "g.npz")
        frozen = load_index(path, memmap_dir=tmp_path / "tier")
        assert frozen.dc.is_memmap
        q = tiny_ds.test_queries[0]
        plain = load_index(path)
        a = frozen.search(q, k=10, ef=60)
        b = plain.search(q, k=10, ef=60)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_store_memmap_and_recovery_preserve_compression(self, tiny_ds,
                                                            tmp_path):
        from repro.durability import recover
        store = VectorStore(dim=16, metric=tiny_ds.metric, M=8,
                            ef_construction=40, seed=3, compressed=True,
                            pq_ks=16, rerank=30,
                            wal_dir=tmp_path / "dur",
                            memmap_path=tmp_path / "vecs.bin")
        store.add(tiny_ds.base)
        store.build()
        assert store.dc.is_memmap
        q = tiny_ds.test_queries[0]
        before = [h[0] for h in store.search(q, k=10, ef=60)]
        store.checkpoint()
        store.delete([before[0]])
        store.close()

        recovered, report = recover(tmp_path / "dur")
        assert report.consistent
        assert recovered.adc is not None   # compressed mode survives restart
        after = [h[0] for h in recovered.search(q, k=10, ef=60)]
        assert before[0] not in after
        recovered.close()
