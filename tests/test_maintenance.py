"""Insertion/deletion maintenance (Sec. 5.5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import FixConfig, IndexMaintainer, NGFixer
from repro.core.maintenance import smallest_stable
from repro.evalx import recall_at_k
from repro.graphs import HNSW, NSG
from repro.store import VectorStore

# Maintenance paths interact with background merging; a stuck compaction or
# rebuild must fail fast rather than hang the suite.
pytestmark = pytest.mark.timeout(120)


def _fixer(tiny_ds, n_base=300):
    base = HNSW(tiny_ds.base[:n_base], tiny_ds.metric, M=8, ef_construction=40)
    fixer = NGFixer(base, FixConfig(k=8, max_extra_degree=10, preprocess="exact"))
    fixer.fit(tiny_ds.train_queries[:40])
    return fixer


def _recall(fixer, queries, k, ef):
    alive = np.ones(fixer.dc.size, dtype=bool)
    if fixer.adjacency.tombstones:
        alive[list(fixer.adjacency.tombstones)] = False
    if hasattr(fixer, "_deleted"):
        alive[list(fixer._deleted)] = False
    data = fixer.dc.data
    from repro.distances import pairwise_distances
    d = pairwise_distances(np.asarray(queries), data, fixer.dc.metric)
    d[:, ~alive] = np.inf
    gt_ids = np.argsort(d, axis=1, kind="stable")[:, :k]
    found = np.vstack([fixer.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt_ids)


class TestInsertion:
    def test_insert_grows_and_finds(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40])
        ids = maintainer.insert(tiny_ds.base[300:320])
        assert ids == list(range(300, 320))
        assert fixer.dc.size == 320
        r = fixer.search(tiny_ds.base[310], k=1, ef=30)
        assert r.ids[0] == 310

    def test_insert_requires_capable_index(self, tiny_ds):
        base = NSG(tiny_ds.base[:200], tiny_ds.metric, R=10, L=25, knn_k=10)
        fixer = NGFixer(base, FixConfig(k=6, preprocess="exact"))
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10])
        with pytest.raises(TypeError, match="insertion"):
            maintainer.insert(tiny_ds.base[300:301])

    def test_partial_rebuild_drops_and_refixes(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40], seed=0)
        report = maintainer.partial_rebuild(proportion=0.5, drop_fraction=0.3)
        assert report["dropped_extra_edges"] > 0
        assert report["history_used"] == 20
        assert report["seconds"] > 0

    def test_partial_rebuild_recovers_quality(self, tiny_ds):
        """After inserting 20% new points, partial rebuild improves test
        recall over no rebuild (Fig. 18 shape)."""
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40], seed=0)
        maintainer.insert(tiny_ds.base[300:360])
        before = _recall(fixer, tiny_ds.test_queries, k=8, ef=16)
        maintainer.partial_rebuild(proportion=1.0, drop_fraction=0.2)
        after = _recall(fixer, tiny_ds.test_queries, k=8, ef=16)
        assert after >= before - 0.02  # never materially worse ...
        # ... and the extra-edge pool has been refreshed:
        assert fixer.adjacency.n_extra_edges() > 0

    def test_fraction_validation(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10])
        with pytest.raises(ValueError):
            maintainer.partial_rebuild(proportion=1.5)

    def test_partial_rebuild_preserves_rfix_edges(self, tiny_ds):
        """Regression: EH=inf RFix navigation edges survive the rebuild's
        random edge drop with their sentinel tag intact."""
        from repro.graphs.adjacency import EH_INFINITE
        fixer = _fixer(tiny_ds)
        u = 0
        v = next(x for x in range(1, fixer.dc.size)
                 if not fixer.adjacency.has_edge(u, x))
        assert fixer.adjacency.add_extra_edge(u, v, eh=EH_INFINITE)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40], seed=0)
        maintainer.partial_rebuild(proportion=0.0, drop_fraction=1.0)
        assert fixer.adjacency.extra_neighbors(u).get(v) == EH_INFINITE


class TestDeletion:
    def test_lazy_deletion_excludes_from_results(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40],
                                     compact_threshold=0.5)
        victim = int(fixer.search(tiny_ds.test_queries[0], k=1, ef=20).ids[0])
        compacted = maintainer.delete([victim])
        assert not compacted
        r = fixer.search(tiny_ds.test_queries[0], k=5, ef=20)
        assert victim not in r.ids.tolist()

    def test_threshold_triggers_compaction(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40],
                                     compact_threshold=0.01, seed=0)
        victims = list(range(10))
        assert maintainer.delete(victims)
        assert not fixer.adjacency.tombstones
        # no edges point at deleted nodes anymore
        for u in range(fixer.dc.size):
            for v in fixer.adjacency.neighbors(u).tolist():
                assert v not in victims

    def test_compaction_repair_preserves_recall(self, tiny_ds):
        """NGFix-repair after physical deletion keeps recall close to the
        pre-deletion level (Fig. 19 shape)."""
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40],
                                     compact_threshold=0.5, seed=0)
        rng = np.random.default_rng(0)
        victims = rng.choice(300, size=45, replace=False).tolist()
        maintainer.delete(victims)
        report = maintainer.compact(repair=True)
        assert report["deleted"] == 45
        assert report["repaired_regions"] == 45
        fixer._deleted = set(victims)
        recall = _recall(fixer, tiny_ds.test_queries, k=8, ef=24)
        assert recall > 0.55

    def test_compact_without_repair_is_faster_but_weaker_or_equal(self, tiny_ds):
        f1, f2 = _fixer(tiny_ds), _fixer(tiny_ds)
        victims = list(range(30))
        for f, repair in ((f1, True), (f2, False)):
            m = IndexMaintainer(f, tiny_ds.train_queries[:40],
                                compact_threshold=0.5, seed=0)
            m.delete(victims)
            m.compact(repair=repair)
            f._deleted = set(victims)
        r_repair = _recall(f1, tiny_ds.test_queries, k=8, ef=24)
        r_plain = _recall(f2, tiny_ds.test_queries, k=8, ef=24)
        assert r_repair >= r_plain - 0.05

    def test_delete_out_of_range(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10])
        with pytest.raises(IndexError):
            maintainer.delete([10_000])

    def test_compact_empty_is_noop(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10])
        assert maintainer.compact()["deleted"] == 0

    def test_delete_invalidates_attached_cache(self, tiny_ds):
        """Regression: cached answers referencing a deleted id are evicted at
        tombstone time, so the searcher never resurrects the point."""
        from repro.core.hash_cache import CachedSearcher
        fixer = _fixer(tiny_ds)
        searcher = CachedSearcher(fixer)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:40],
                                     compact_threshold=0.5, cache=searcher)
        query = tiny_ds.test_queries[0]
        first = searcher.search(query, k=5, ef=20)
        searcher.cache.put(query, first.ids, first.distances)
        victim = int(first.ids[0])
        maintainer.delete([victim])
        assert len(searcher.cache) == 0
        again = searcher.search(query, k=5, ef=20)
        assert victim not in again.ids.tolist()

    def test_entry_point_moved_if_deleted(self, tiny_ds):
        fixer = _fixer(tiny_ds)
        maintainer = IndexMaintainer(fixer, tiny_ds.train_queries[:10],
                                     compact_threshold=0.5, seed=0)
        entry = fixer.entry
        maintainer.delete([entry])
        maintainer.compact(repair=False)
        assert fixer.entry != entry


class TestRepairNeighborhood:
    """Compaction's top-K_max selection and stores smaller than K_max."""

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60),
           st.integers(1, 70))
    def test_smallest_stable_is_the_stable_argsort_prefix(self, values,
                                                          count):
        values = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(
            smallest_stable(values, count),
            np.argsort(values, kind="stable")[:count])

    def test_ties_straddling_the_cut_keep_position_order(self):
        values = np.array([3.0, 1.0, 2.0, 2.0, 0.5, 2.0, 9.0, 2.0])
        # Four 2.0s compete for the last two places: the first two win.
        assert smallest_stable(values, 4).tolist() == [4, 1, 2, 3]
        assert smallest_stable(values, 7).tolist() == [4, 1, 2, 3, 5, 7, 0]

    @pytest.mark.parametrize("n_rows", [12, 15, 25])
    def test_store_smaller_than_k_max_fits_fixes_and_compacts(self, n_rows):
        """The default fixer's K_max is 30 (60 for repair): a smaller store
        measures EH over every live row instead of raising, and a
        compaction completes, so no deleted id comes back."""
        rng = np.random.default_rng(n_rows)
        data = rng.standard_normal((n_rows, 8)).astype(np.float32)
        store = VectorStore(dim=8, metric="l2", seed=1)
        try:
            store.add(data)
            store.build()
            store.fit_history(rng.standard_normal((4, 8)).astype(np.float32))
            assert store.observe(rng.standard_normal(8).astype(np.float32))
            assert store.delete([1, 2])  # above the 5 % threshold: compacts
            assert not store._fixer.adjacency.tombstones
            store.observe(data[1])
            for row in data:
                ids = [hit[0] for hit in store.search(row, k=10)]
                assert ids and not {1, 2} & set(ids)
        finally:
            store.close()
