"""Batch engine ≡ sequential search: bit-level ids/distances/NDC equality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import list_datasets, load_dataset
from repro.distances import DistanceComputer, Metric
from repro.graphs import HNSW
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.search import (BatchSearchEngine, VisitedTable, greedy_search,
                                 pad_results)
from repro.store import VectorStore


@st.composite
def world_with_graph(draw):
    n = draw(st.integers(8, 40))
    dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    data = np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)
    rng = np.random.default_rng(seed + 1)
    adjacency = AdjacencyStore(n)
    deg = draw(st.integers(1, 6))
    for u in range(n):
        for v in rng.choice(n, size=min(deg, n - 1), replace=False):
            if int(v) != u:
                adjacency.add_base_edge(u, int(v))
    metric = draw(st.sampled_from(list(Metric)))
    return data, adjacency, metric, seed


def _assert_equivalent(dc, adjacency, queries, k, ef, excluded=None, entry=0,
                       batch_size=8):
    """Sequential per-query search and the batch engine must agree bitwise
    (this file runs on the reference executor: ``to_query`` per row against
    ``block_to_queries`` per block)."""
    visited = VisitedTable(dc.size)
    dc.reset_ndc()
    seq = [greedy_search(dc, adjacency.neighbors, [entry], q, k=k, ef=ef,
                         visited=visited, excluded=excluded) for q in queries]
    ndc_seq = dc.reset_ndc()

    engine = BatchSearchEngine(dc, adjacency.neighbors, lambda q: [entry],
                               excluded_fn=lambda: excluded,
                               batch_size=batch_size)
    bat = engine.search_batch(np.asarray(queries, dtype=np.float32), k, ef)
    assert dc.reset_ndc() == ndc_seq
    for s, b in zip(seq, bat):
        np.testing.assert_array_equal(s.ids, b.ids)
        # Bit-level, not allclose: both kernels share one per-row reduction.
        np.testing.assert_array_equal(s.distances, b.distances)
        assert (s.n_hops, s.frontier_peak) == (b.n_hops, b.frontier_peak)
    return seq


class TestBatchEquivalenceProperties:
    @settings(max_examples=40, deadline=None)
    @given(world_with_graph(), st.integers(1, 6), st.integers(1, 24),
           st.integers(1, 7))
    def test_matches_sequential_all_metrics(self, world, k, ef, batch_size):
        data, adjacency, metric, seed = world
        dc = DistanceComputer(data, metric)
        queries = np.random.default_rng(seed + 2).standard_normal(
            (5, data.shape[1])).astype(np.float32)
        _assert_equivalent(dc, adjacency, queries, k, ef,
                           batch_size=batch_size)

    @settings(max_examples=25, deadline=None)
    @given(world_with_graph(), st.integers(1, 5), st.integers(2, 16))
    def test_matches_sequential_with_tombstones(self, world, k, ef):
        data, adjacency, metric, seed = world
        n = data.shape[0]
        rng = np.random.default_rng(seed + 3)
        excluded = set(int(v) for v in
                       rng.choice(n, size=min(5, n - 1), replace=False))
        dc = DistanceComputer(data, metric)
        queries = rng.standard_normal((4, data.shape[1])).astype(np.float32)
        _assert_equivalent(dc, adjacency, queries, k, ef, excluded=excluded)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(list(Metric)))
    def test_short_results_padding(self, seed, metric):
        """Entry confined to a 2-node component: both paths return the same
        short result rows (``pad_results`` pads them with -1/inf)."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((12, 3)).astype(np.float32)
        adjacency = AdjacencyStore(12)
        adjacency.add_base_edge(0, 1)
        adjacency.add_base_edge(1, 0)
        for u in range(2, 12):  # second component, unreachable from 0
            adjacency.add_base_edge(u, 2 + (u - 1) % 10)
        dc = DistanceComputer(data, metric)
        queries = rng.standard_normal((3, 3)).astype(np.float32)
        seq = _assert_equivalent(dc, adjacency, queries, 5, 8)
        assert all(len(s.ids) == 2 for s in seq)


class TestIndexBatchPaths:
    def test_search_many_batched_equals_sequential(self, tiny_ds, shared_hnsw):
        queries = tiny_ds.test_queries[:20]
        ids_seq, d_seq = pad_results(
            shared_hnsw.search_batch(queries, k=5, ef=30, batch_size=1), 5)
        ids_bat, d_bat = pad_results(
            shared_hnsw.search_batch(queries, k=5, ef=30, batch_size=7), 5)
        np.testing.assert_array_equal(ids_seq, ids_bat)
        np.testing.assert_array_equal(d_seq, d_bat)

    def test_search_many_pads_short_rows(self, tiny_ds):
        index = HNSW(tiny_ds.base[:3], tiny_ds.metric, M=4,
                     ef_construction=10)
        ids, dists = pad_results(
            index.search_batch(tiny_ds.test_queries[:4], k=5, ef=10), 5)
        assert (ids[:, 3:] == -1).all()
        assert np.isinf(dists[:, 3:]).all()

    def test_search_batch_ndc_matches_sequential(self, tiny_ds, shared_hnsw):
        queries = tiny_ds.test_queries[:10]
        shared_hnsw.dc.reset_ndc()
        seq = [shared_hnsw.search(q, k=5, ef=25) for q in queries]
        ndc_seq = shared_hnsw.dc.reset_ndc()
        bat = shared_hnsw.search_batch(queries, k=5, ef=25, batch_size=4)
        ndc_bat = shared_hnsw.dc.reset_ndc()
        assert ndc_seq == ndc_bat
        for s, b in zip(seq, bat):
            np.testing.assert_array_equal(s.ids, b.ids)
            np.testing.assert_array_equal(s.distances, b.distances)

    def test_batch_size_validation(self, tiny_ds, shared_hnsw):
        with pytest.raises(ValueError):
            shared_hnsw.search_batch(tiny_ds.test_queries[:2], k=3,
                                     batch_size=0)
        with pytest.raises(ValueError):
            shared_hnsw.search_batch(tiny_ds.test_queries[:2], k=0)

    def test_clone_does_not_share_engine(self, tiny_ds, shared_hnsw):
        shared_hnsw.search_batch(tiny_ds.test_queries[:4], k=3, ef=10)
        copy = shared_hnsw.clone()
        assert copy._batch_engine is None
        r1 = shared_hnsw.search_batch(tiny_ds.test_queries[:4], k=3, ef=10)
        r2 = copy.search_batch(tiny_ds.test_queries[:4], k=3, ef=10)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.ids, b.ids)


@pytest.mark.parametrize("name", list_datasets())
def test_registry_dataset_equivalence(name):
    """Acceptance: batched ≡ sequential (ids, distances, NDC) on every
    registry dataset."""
    ds = load_dataset(name, seed=0, scale=0.25)
    index = HNSW(ds.base, ds.metric, M=8, ef_construction=40)
    queries = ds.test_queries[:20]
    index.dc.reset_ndc()
    seq = [index.search(q, k=10, ef=50) for q in queries]
    ndc_seq = index.dc.reset_ndc()
    bat = index.search_batch(queries, k=10, ef=50, batch_size=8)
    ndc_bat = index.dc.reset_ndc()
    assert ndc_seq == ndc_bat
    for s, b in zip(seq, bat):
        np.testing.assert_array_equal(s.ids, b.ids)
        np.testing.assert_array_equal(s.distances, b.distances)
        assert s.n_hops == b.n_hops


def _assert_same_answers(sequential, batched):
    assert len(sequential) == len(batched)
    for s, b in zip(sequential, batched):
        np.testing.assert_array_equal(s.ids, b.ids)
        np.testing.assert_array_equal(s.distances, b.distances)
        assert (s.n_hops, s.degraded) == (b.n_hops, b.degraded)


@pytest.mark.parametrize("size", [1, 64])
class TestBlockSizeDispatch:
    """A block of one and a full block through the public batched entry
    points: the answers and the total NDC are those of per-query
    ``search``."""

    def test_graph_index_under_tombstones(self, tiny_ds, fresh_hnsw, rng,
                                          size):
        fresh_hnsw.adjacency.tombstones.update(
            int(v) for v in rng.choice(fresh_hnsw.size, size=25,
                                       replace=False))
        queries = np.concatenate(
            [tiny_ds.test_queries, tiny_ds.train_queries])[:size]
        dc = fresh_hnsw.dc
        dc.reset_ndc()
        sequential = [fresh_hnsw.search(q, k=10, ef=40) for q in queries]
        ndc = dc.reset_ndc()
        batched = fresh_hnsw.search_batch(queries, k=10, ef=40,
                                          batch_size=size)
        assert dc.reset_ndc() == ndc
        _assert_same_answers(sequential, batched)
        for result in batched:
            assert not (set(result.ids.tolist())
                        & fresh_hnsw.adjacency.tombstones)

    @pytest.mark.parametrize("deadline_ms", [None, 0.0],
                             ids=["no-deadline", "expired-deadline"])
    def test_serving_under_tombstones_and_overlay(self, tiny_ds, size,
                                                  deadline_ms):
        store = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                            ef_construction=40, seed=3, merge_every=10_000)
        try:
            store.add(tiny_ds.base)
            store.build()
            # Both land in the overlay: no merge is due, so the pinned view
            # patches tombstones and new nodes' edges over the epoch's CSR.
            store.delete(list(range(5, 65, 4)))
            store.add(tiny_ds.train_queries[:10])
            assert store.epochs.stats()["overlay_ops"] > 0
            queries = np.concatenate(
                [tiny_ds.test_queries, tiny_ds.train_queries[10:]])[:size]
            searcher, dc = store.searcher, store.dc
            dc.reset_ndc()
            sequential = [searcher.search(q, k=10, ef=40,
                                          deadline_ms=deadline_ms)
                          for q in queries]
            ndc = dc.reset_ndc()
            batched = searcher.search_batch(queries, k=10, ef=40,
                                            batch_size=size,
                                            deadline_ms=deadline_ms)
            assert dc.reset_ndc() == ndc
            _assert_same_answers(sequential, batched)
            assert all(r.degraded == (deadline_ms is not None)
                       for r in batched)
        finally:
            store.close()


class TestWideBeam:
    """beam_width > 1 trades the W=1 bit-equivalence contract for a larger
    scored set; what it must preserve: the result list is the exact top-k
    of everything the beam scored, and recall stays in a band of the
    sequential-equivalent W=1 engine."""

    def test_beam_width_validation(self):
        dc = DistanceComputer(np.zeros((4, 2), dtype=np.float32), Metric.L2)
        adjacency = AdjacencyStore(4)
        adjacency.add_base_edge(0, 1)
        with pytest.raises(ValueError):
            BatchSearchEngine(dc, adjacency.neighbors, lambda q: [0],
                              beam_width=0)

    @settings(max_examples=25, deadline=None)
    @given(world_with_graph(), st.integers(1, 5), st.integers(2, 16),
           st.integers(2, 8))
    def test_results_are_topk_of_scored_set(self, world, k, ef, width):
        data, adjacency, metric, seed = world
        dc = DistanceComputer(data, metric)
        queries = np.random.default_rng(seed + 4).standard_normal(
            (4, data.shape[1])).astype(np.float32)
        engine = BatchSearchEngine(dc, adjacency.neighbors, lambda q: [0],
                                   batch_size=4, beam_width=width)
        results = engine.search_batch(queries, k=k, ef=max(ef, k),
                                      collect_visited=True)
        for r in results:
            m = min(k, r.visited_ids.shape[0])
            np.testing.assert_array_equal(
                np.sort(r.distances),
                np.sort(r.visited_distances)[:m])

    def test_recall_band_vs_single_beam(self, tiny_ds, shared_hnsw, tiny_gt):
        queries = tiny_ds.test_queries[:30]
        k, ef = 10, 40
        recalls = {}
        for width in (1, 8):
            engine = BatchSearchEngine(
                shared_hnsw.dc, shared_hnsw.adjacency.neighbors,
                shared_hnsw.entry_points, batch_size=16, beam_width=width)
            results = engine.search_batch(queries, k=k, ef=ef)
            hits = sum(
                len(set(r.ids.tolist()) & set(tiny_gt.ids[i, :k].tolist()))
                for i, r in enumerate(results))
            recalls[width] = hits / (len(queries) * k)
        assert recalls[8] >= recalls[1] - 0.05
