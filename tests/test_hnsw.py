"""HNSW (its bottom layer): construction, search quality, incremental
insertion."""

import numpy as np
import pytest

from repro.evalx import compute_ground_truth, recall_at_k
from repro.graphs import HNSW
from repro.graphs.exact import is_strongly_connected
from repro.graphs.search import pad_results


class TestConstruction:
    def test_degree_bounded(self, shared_hnsw):
        M0 = shared_hnsw.M0 + shared_hnsw._shrink_slack
        for u in range(shared_hnsw.size):
            assert len(shared_hnsw.adjacency.base_neighbors(u)) <= M0

    def test_deterministic_given_seed(self, tiny_ds):
        """Two builds of the same rows are equal: nothing is drawn at
        random."""
        a = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=30)
        b = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=30)
        for u in range(a.size):
            assert a.adjacency.base_neighbors(u) == b.adjacency.base_neighbors(u)

    def test_graph_connected_from_medoid(self, shared_hnsw):
        neighbors = [shared_hnsw.adjacency.neighbors(u).tolist()
                     for u in range(shared_hnsw.size)]
        assert is_strongly_connected(neighbors, shared_hnsw.size,
                                     start=shared_hnsw.medoid())

    def test_invalid_params(self, tiny_ds):
        with pytest.raises(ValueError):
            HNSW(tiny_ds.base, tiny_ds.metric, M=0)
        with pytest.raises(ValueError):
            HNSW(tiny_ds.base, tiny_ds.metric, ef_construction=0)


class TestSearchQuality:
    def test_high_recall_on_base_points(self, tiny_ds, shared_hnsw):
        """Base points used as queries: HNSW must be near-exact."""
        queries = tiny_ds.base[:30]
        gt = compute_ground_truth(tiny_ds.base, queries, 5, tiny_ds.metric)
        found = np.vstack([shared_hnsw.search(q, k=5, ef=40).ids for q in queries])
        assert recall_at_k(found, gt.ids) > 0.97

    def test_recall_grows_with_ef(self, tiny_ds, shared_hnsw, tiny_gt):
        k = 10
        recalls = []
        for ef in (10, 40, 160):
            found = np.vstack([shared_hnsw.search(q, k=k, ef=ef).ids[:k]
                               for q in tiny_ds.test_queries])
            recalls.append(recall_at_k(found, tiny_gt.top(k).ids))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] > 0.9

    def test_search_returns_sorted(self, tiny_ds, shared_hnsw):
        r = shared_hnsw.search(tiny_ds.test_queries[0], k=10, ef=30)
        assert (np.diff(r.distances) >= 0).all()

    def test_default_ef(self, tiny_ds, shared_hnsw):
        r = shared_hnsw.search(tiny_ds.test_queries[0], k=5)
        assert len(r.ids) == 5


class TestInsert:
    def test_insert_searchable(self, tiny_ds):
        index = HNSW(tiny_ds.base[:200], tiny_ds.metric, M=8,
                     ef_construction=40)
        new_vec = tiny_ds.base[300]
        [new_id] = index.insert(new_vec)
        assert new_id == 200
        assert index.size == 201
        result = index.search(new_vec, k=1, ef=30)
        assert result.ids[0] == new_id

    def test_insert_many_preserves_recall(self, tiny_ds):
        index = HNSW(tiny_ds.base[:300], tiny_ds.metric, M=8,
                     ef_construction=40)
        for v in tiny_ds.base[300:360]:
            index.insert(v)
        queries = tiny_ds.base[300:330]
        gt = compute_ground_truth(index.dc.data, queries, 5, tiny_ds.metric)
        found = np.vstack([index.search(q, k=5, ef=40).ids for q in queries])
        assert recall_at_k(found, gt.ids) > 0.9

    def test_insert_updates_medoid_lazily(self, tiny_ds):
        index = HNSW(tiny_ds.base[:100], tiny_ds.metric, M=8,
                     ef_construction=30)
        m1 = index.medoid()
        index.insert(tiny_ds.base[200])
        m2 = index.medoid()  # recomputed (may or may not change)
        assert 0 <= m2 <= index.size - 1
        assert isinstance(m1, int)


class TestSearchMany:
    """A batch as padded arrays: ``pad_results(search_batch(...), k)``."""

    def test_shapes_and_agreement(self, tiny_ds, shared_hnsw):
        ids, dists = pad_results(
            shared_hnsw.search_batch(tiny_ds.test_queries[:5], k=7, ef=30), 7)
        assert ids.shape == (5, 7)
        assert dists.shape == (5, 7)
        single = shared_hnsw.search(tiny_ds.test_queries[0], k=7, ef=30)
        assert ids[0].tolist() == single.ids.tolist()

    def test_single_query_promoted(self, tiny_ds, shared_hnsw):
        ids, _ = pad_results(
            shared_hnsw.search_batch(tiny_ds.test_queries[0], k=3, ef=20), 3)
        assert ids.shape == (1, 3)


class TestStats:
    def test_stats_fields(self, shared_hnsw):
        s = shared_hnsw.stats()
        assert s["n_nodes"] == shared_hnsw.size
        assert s["n_extra_edges"] == 0
        assert s["avg_out_degree"] > 1
        assert s["index_size_bytes"] > 0


@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
def test_all_metrics_supported(metric, tiny_ds):
    data = tiny_ds.base[:120]
    index = HNSW(data, metric, M=6, ef_construction=30)
    gt = compute_ground_truth(index.dc.data, data[:20], 5, metric)
    found = np.vstack([index.search(q, k=5, ef=40).ids for q in index.dc.data[:20]])
    assert recall_at_k(found, gt.ids) > 0.9
