"""Section 7 extensions: augmentation, NGFix+, hash cache, adaptive ef."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveSearcher,
    CachedSearcher,
    FixConfig,
    HashTableCache,
    NGFixer,
    augment_queries,
    ngfix_plus_query,
)
from repro.core.ngfix_plus import perturb_within_ball
from repro.evalx import compute_ground_truth, recall_at_k
from repro.graphs import HNSW
from repro.graphs.search import pad_results


class TestAugment:
    def test_counts(self):
        q = np.random.default_rng(0).standard_normal((5, 8)).astype(np.float32)
        out = augment_queries(q, per_query=3, seed=0)
        assert out.shape == (5 + 15, 8)
        out2 = augment_queries(q, per_query=3, include_original=False, seed=0)
        assert out2.shape == (15, 8)

    def test_noise_scale(self):
        """Per-dim variance sigma^2/d -> expected offset norm ~ sigma."""
        q = np.zeros((1, 64), dtype=np.float32)
        out = augment_queries(q, per_query=500, sigma=0.3,
                              include_original=False, seed=0)
        norms = np.linalg.norm(out, axis=1)
        assert abs(norms.mean() - 0.3) < 0.03

    def test_normalize_option(self):
        q = np.random.default_rng(1).standard_normal((3, 8)).astype(np.float32)
        out = augment_queries(q, per_query=2, normalize=True, seed=0)
        assert np.allclose(np.linalg.norm(out[3:], axis=1), 1.0, atol=1e-5)

    def test_deterministic(self):
        q = np.ones((2, 4), dtype=np.float32)
        assert np.array_equal(augment_queries(q, 2, seed=5),
                              augment_queries(q, 2, seed=5))

    def test_validation(self):
        q = np.ones((2, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            augment_queries(q, per_query=0)
        with pytest.raises(ValueError):
            augment_queries(q, per_query=1, sigma=0)

    def test_augmented_history_improves_sparse_history_fixing(self, tiny_ds, tiny_gt):
        """Fig. 20 shape: with few real historical queries, fixing with
        augmented copies beats fixing with the originals alone."""
        k, ef = 10, 16
        sparse = tiny_ds.train_queries[:8]

        base1 = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40)
        f1 = NGFixer(base1, FixConfig(k=k, preprocess="exact"))
        f1.fit(sparse)
        r_plain = _recall_of(f1, tiny_ds.test_queries, tiny_gt, k, ef)

        base2 = HNSW(tiny_ds.base, tiny_ds.metric, M=8, ef_construction=40)
        f2 = NGFixer(base2, FixConfig(k=k, preprocess="exact"))
        f2.fit(augment_queries(sparse, per_query=8, sigma=0.3,
                               normalize=True, seed=0))
        r_aug = _recall_of(f2, tiny_ds.test_queries, tiny_gt, k, ef)
        assert r_aug >= r_plain


def _recall_of(index, queries, gt, k, ef):
    found = np.vstack([index.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt.top(k).ids)


class TestNgfixPlus:
    def test_perturb_within_ball_radius(self):
        q = np.zeros((2, 6), dtype=np.float32)
        out = perturb_within_ball(q, delta=0.5, n_samples=50, seed=0)
        assert out.shape == (100, 6)
        assert (np.linalg.norm(out, axis=1) <= 0.5 + 1e-5).all()

    def test_adds_edges_and_more_than_plain(self, tiny_ds, fresh_hnsw):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, max_extra_degree=16,
                                              preprocess="exact"))
        q = tiny_ds.train_queries[0]
        added = ngfix_plus_query(fixer, q, delta=0.2, n_samples=10, seed=0)
        assert added >= 0
        assert fixer.adjacency.n_extra_edges() >= added

    def test_validation(self, tiny_ds, fresh_hnsw):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8))
        with pytest.raises(ValueError):
            ngfix_plus_query(fixer, tiny_ds.train_queries[0], delta=0,
                             n_samples=5)


class TestHashCache:
    def test_put_get_roundtrip(self):
        cache = HashTableCache()
        q = np.ones(4, dtype=np.float32)
        cache.put(q, np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))
        hit = cache.get(q, k=3)
        assert hit.ids.tolist() == [1, 2, 3]
        assert cache.hits == 1

    def test_miss_on_unseen(self):
        cache = HashTableCache()
        assert cache.get(np.ones(4, dtype=np.float32), k=3) is None
        assert cache.misses == 1

    def test_miss_when_k_exceeds_stored(self):
        cache = HashTableCache()
        q = np.ones(4, dtype=np.float32)
        cache.put(q, np.array([1]), np.array([0.1]))
        assert cache.get(q, k=5) is None

    def test_bit_exact_matching_only(self):
        cache = HashTableCache()
        q = np.ones(4, dtype=np.float32)
        cache.put(q, np.array([1]), np.array([0.1]))
        assert cache.get(q + 1e-7, k=1) is None

    def test_alternative_algorithm(self):
        cache = HashTableCache(algorithm="sha1")
        q = np.zeros(2, dtype=np.float32)
        cache.put(q, np.array([0]), np.array([0.0]))
        assert cache.get(q, k=1) is not None
        with pytest.raises(ValueError):
            HashTableCache(algorithm="not-a-hash")

    def test_memory_accounting(self):
        cache = HashTableCache()
        cache.put(np.zeros(2, dtype=np.float32), np.arange(5), np.arange(5.0))
        assert cache.memory_bytes() == 16 + 5 * 8 + 5 * 8

    def test_mismatched_put_rejected(self):
        cache = HashTableCache()
        with pytest.raises(ValueError):
            cache.put(np.zeros(2, dtype=np.float32), np.arange(3), np.arange(2.0))

    def test_put_copies_caller_arrays(self):
        """Regression: put() must copy — np.asarray aliases matching dtypes,
        so a caller mutating its arrays in place corrupted cached answers."""
        cache = HashTableCache()
        q = np.ones(4, dtype=np.float32)
        ids = np.array([1, 2, 3], dtype=np.int64)
        dists = np.array([0.1, 0.2, 0.3], dtype=np.float64)
        cache.put(q, ids, dists)
        ids[:] = -1
        dists[:] = np.inf
        hit = cache.get(q, k=3)
        assert hit.ids.tolist() == [1, 2, 3]
        assert hit.distances.tolist() == pytest.approx([0.1, 0.2, 0.3])

    def test_get_returns_copies(self):
        cache = HashTableCache()
        q = np.ones(4, dtype=np.float32)
        cache.put(q, np.array([1, 2]), np.array([0.1, 0.2]))
        cache.get(q, k=2).ids[:] = 99
        assert cache.get(q, k=2).ids.tolist() == [1, 2]

    def test_hit_ratio(self):
        cache = HashTableCache()
        assert cache.hit_ratio() == 0.0
        q = np.ones(4, dtype=np.float32)
        cache.put(q, np.array([1]), np.array([0.1]))
        cache.get(q, k=1)
        cache.get(np.zeros(4, dtype=np.float32), k=1)
        assert cache.hit_ratio() == 0.5

    def test_drop_if_contains_evicts_only_stale_entries(self):
        cache = HashTableCache()
        q1, q2 = np.ones(4, dtype=np.float32), np.zeros(4, dtype=np.float32)
        cache.put(q1, np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))
        cache.put(q2, np.array([4, 5, 6]), np.array([0.1, 0.2, 0.3]))
        assert cache.drop_if_contains([2]) == 1
        assert cache.get(q1, k=3) is None
        assert cache.get(q2, k=3) is not None
        assert cache.drop_if_contains([]) == 0


class TestCachedSearcher:
    def test_hit_skips_index_and_is_exact(self, tiny_ds, shared_hnsw, tiny_train_gt):
        searcher = CachedSearcher(shared_hnsw)
        searcher.warm(tiny_ds.train_queries, tiny_train_gt.ids,
                      tiny_train_gt.distances)
        shared_hnsw.dc.reset_ndc()
        r = searcher.search(tiny_ds.train_queries[0], k=10)
        assert shared_hnsw.dc.ndc == 0  # no distance work on a hit
        assert r.ids.tolist() == tiny_train_gt.ids[0][:10].tolist()

    def test_miss_falls_through(self, tiny_ds, shared_hnsw):
        searcher = CachedSearcher(shared_hnsw)
        r = searcher.search(tiny_ds.test_queries[0], k=5, ef=20)
        assert len(r.ids) == 5
        assert searcher.cache.misses == 1

    def test_invalidate_drops_cached_answers(self, tiny_ds, shared_hnsw):
        searcher = CachedSearcher(shared_hnsw)
        query = tiny_ds.test_queries[0]
        r = searcher.search(query, k=5, ef=20)
        searcher.cache.put(query, r.ids, r.distances)
        assert searcher.invalidate([int(r.ids[0])]) == 1
        assert len(searcher.cache) == 0

    def test_stale_hit_never_returns_deleted_id(self, tiny_ds, fresh_hnsw):
        """Regression: a cached-then-deleted id must not reappear even when
        the deletion bypassed invalidate() (tombstone guard at hit time)."""
        searcher = CachedSearcher(fresh_hnsw)
        query = tiny_ds.test_queries[0]
        r = searcher.search(query, k=5, ef=20)
        searcher.cache.put(query, r.ids, r.distances)
        victim = int(r.ids[0])
        fresh_hnsw.adjacency.tombstones.add(victim)
        again = searcher.search(query, k=5, ef=20)
        assert victim not in again.ids.tolist()
        assert len(searcher.cache) == 0  # stale entry was purged


class TestCachedSearcherBatch:
    """Regression: evaluation harnesses call search_batch, which
    CachedSearcher used to lack — wrapping an index silently bypassed the
    cache on every batched run."""

    def test_batch_matches_sequential_per_query(self, tiny_ds, shared_hnsw,
                                                tiny_train_gt):
        searcher = CachedSearcher(shared_hnsw)
        searcher.warm(tiny_ds.train_queries, tiny_train_gt.ids,
                      tiny_train_gt.distances)
        # Interleave warmed (hit) and unseen (miss) queries.
        mixed = np.vstack([tiny_ds.train_queries[:3], tiny_ds.test_queries[:3],
                           tiny_ds.train_queries[3:5]])
        batch = searcher.search_batch(mixed, k=10, ef=30, batch_size=4)
        for q, res in zip(mixed, batch):
            direct = searcher.search(q, k=10, ef=30)
            assert res.ids.tolist() == direct.ids.tolist()

    def test_engine_runs_only_on_misses(self, tiny_ds, shared_hnsw,
                                        tiny_train_gt):
        searcher = CachedSearcher(shared_hnsw)
        searcher.warm(tiny_ds.train_queries, tiny_train_gt.ids,
                      tiny_train_gt.distances)
        shared_hnsw.dc.reset_ndc()
        searcher.search_batch(tiny_ds.train_queries[:8], k=10, ef=30)
        assert shared_hnsw.dc.ndc == 0  # every row was a hit
        assert searcher.cache.hits == 8

    def test_search_many_shapes_and_padding(self, tiny_ds, shared_hnsw):
        searcher = CachedSearcher(shared_hnsw)
        ids, dists = pad_results(searcher.search_batch(
            tiny_ds.test_queries[:5], k=10, ef=30, batch_size=4), 10)
        assert ids.shape == (5, 10) and dists.shape == (5, 10)
        assert (ids >= 0).all()  # tiny graph still yields full top-10

    def test_sequential_fallback_without_batch_engine(self, tiny_ds,
                                                      shared_hnsw):
        class NoBatch:
            """Index protocol minus search_batch."""
            def __init__(self, inner):
                self._inner = inner
                self.dc = inner.dc
            def search(self, query, k, ef=None):
                return self._inner.search(query, k=k, ef=ef)

        searcher = CachedSearcher(NoBatch(shared_hnsw))
        batch = searcher.search_batch(tiny_ds.test_queries[:4], k=5, ef=20)
        for q, res in zip(tiny_ds.test_queries[:4], batch):
            assert res.ids.tolist() == \
                shared_hnsw.search(q, k=5, ef=20).ids.tolist()

    def test_evaluate_index_accepts_cached_searcher(self, tiny_ds, shared_hnsw,
                                                    tiny_gt):
        from repro.evalx import evaluate_index
        searcher = CachedSearcher(shared_hnsw)
        point = evaluate_index(searcher, tiny_ds.test_queries, tiny_gt,
                               k=10, ef=30, batch_size=8)
        assert point.recall > 0.5
        assert searcher.cache.misses == len(tiny_ds.test_queries)


class TestAdaptiveSearcher:
    @pytest.fixture
    def calibrated(self, tiny_ds, shared_hnsw, tiny_gt):
        searcher = AdaptiveSearcher(shared_hnsw, tiny_ds.train_queries, n_bins=2)
        searcher.calibrate(tiny_ds.test_queries, tiny_gt, k=10,
                           target_recall=0.9, ef_grid=[10, 20, 40, 80])
        return searcher

    def test_requires_calibration(self, tiny_ds, shared_hnsw):
        searcher = AdaptiveSearcher(shared_hnsw, tiny_ds.train_queries)
        with pytest.raises(RuntimeError):
            searcher.ef_for(tiny_ds.test_queries[0])

    def test_calibration_table(self, calibrated):
        assert calibrated.fallback_ef in (10, 20, 40, 80)
        assert len(calibrated._bin_ef) == 2

    def test_bin_efs_come_from_grid(self, calibrated):
        # (On an unfixed index similarity does not order hardness, so no
        # monotonicity is asserted here — Fig. 9's effect needs a fixed graph.)
        assert all(ef in (10, 20, 40, 80) for ef in calibrated._bin_ef)

    def test_search_meets_target_on_average(self, calibrated, tiny_ds, tiny_gt):
        found = np.vstack([calibrated.search(q, k=10).ids[:10]
                           for q in tiny_ds.test_queries])
        assert recall_at_k(found, tiny_gt.top(10).ids) >= 0.85

    def test_history_distance_shape(self, calibrated, tiny_ds):
        d = calibrated.history_distance(tiny_ds.test_queries[:5])
        assert d.shape == (5,)
        assert (d >= 0).all()

    def test_empty_bins_inherit_nearest_fitted_ef(self, tiny_ds,
                                                  shared_hnsw, tiny_gt):
        # Regression: identical calibration queries collapse every
        # similarity quantile onto one value, leaving all but one bin
        # empty.  Empty bins must inherit the nearest fitted bin's ef —
        # not silently pin the grid maximum.
        searcher = AdaptiveSearcher(shared_hnsw, tiny_ds.train_queries,
                                    n_bins=4)
        queries = np.repeat(tiny_ds.test_queries[:1], 12, axis=0)
        gt = compute_ground_truth(tiny_ds.base, queries, 10, tiny_ds.metric)
        table = searcher.calibrate(queries, gt, k=10, target_recall=0.9,
                                   ef_grid=[10, 20, 40, 320])
        fitted = [b for b, row in table.items()
                  if row["n_queries"] > 0]
        assert len(fitted) == 1
        src = fitted[0]
        for b, row in table.items():
            assert row["ef"] == table[src]["ef"]
            if b != src:
                assert row["n_queries"] == 0
                assert row["inherited_from"] == src
        # The inherited ef is the fitted one, not the grid max (unless the
        # fitted bin itself needed it).
        if table[src]["ef"] != 320:
            assert all(ef != 320 for ef in searcher._bin_ef)
