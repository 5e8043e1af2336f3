"""k-means and product quantization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.distances import DistanceComputer, Metric
from repro.quantization import ADCComputer, ProductQuantizer, kmeans
from repro.quantization import pq as pq_module
from repro.quantization.kmeans import _kmeanspp_init
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix, check_positive


class TestKmeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        blob_a = rng.standard_normal((60, 4)) * 0.1
        blob_b = rng.standard_normal((60, 4)) * 0.1 + 8.0
        centers, assignments = kmeans(np.vstack([blob_a, blob_b]), 2, seed=0)
        assert len(set(assignments[:60])) == 1
        assert len(set(assignments[60:])) == 1
        assert assignments[0] != assignments[60]

    def test_returns_k_centers(self):
        data = np.random.default_rng(1).standard_normal((50, 3))
        centers, assignments = kmeans(data, 7, seed=0)
        assert centers.shape == (7, 3)
        assert set(np.unique(assignments)) <= set(range(7))

    def test_deterministic(self):
        data = np.random.default_rng(2).standard_normal((40, 3))
        a = kmeans(data, 4, seed=9)[0]
        b = kmeans(data, 4, seed=9)[0]
        assert np.allclose(a, b)

    def test_duplicate_points_handled(self):
        data = np.ones((20, 3))
        centers, assignments = kmeans(data, 3, seed=0)
        assert centers.shape == (3, 3)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5)


class TestProductQuantizer:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_ds):
        pq = ProductQuantizer(m=4, ks=16, metric=tiny_ds.metric, seed=0)
        return pq.fit(tiny_ds.base)

    def test_codes_shape_and_dtype(self, fitted, tiny_ds):
        codes = fitted.encode(tiny_ds.base[:20])
        assert codes.shape == (20, 4)
        assert codes.dtype == np.uint8

    def test_reconstruction_beats_zero_baseline(self, fitted, tiny_ds):
        err = fitted.quantization_error(tiny_ds.base)
        zero_err = float((tiny_ds.base ** 2).sum(axis=1).mean())
        assert err < 0.5 * zero_err

    def test_more_centroids_less_error(self, tiny_ds):
        small = ProductQuantizer(m=4, ks=4, metric=tiny_ds.metric,
                                 seed=0).fit(tiny_ds.base)
        large = ProductQuantizer(m=4, ks=64, metric=tiny_ds.metric,
                                 seed=0).fit(tiny_ds.base)
        assert (large.quantization_error(tiny_ds.base)
                < small.quantization_error(tiny_ds.base))

    def test_adc_approximates_true_distance(self, fitted, tiny_ds):
        """ADC scores correlate strongly with exact distances."""
        from repro.distances import distances_to_query, normalize_rows
        query = tiny_ds.test_queries[0]
        table = fitted.adc_table(query / np.linalg.norm(query))
        codes = fitted.encode(tiny_ds.base)
        approx = fitted.adc_distances(codes, table)
        exact = distances_to_query(normalize_rows(tiny_ds.base),
                                   query, tiny_ds.metric)
        corr = np.corrcoef(approx, exact)[0, 1]
        assert corr > 0.9

    def test_unfitted_rejected(self):
        pq = ProductQuantizer(m=2, ks=4)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((2, 4), dtype=np.float32))

    def test_validation(self, tiny_ds):
        with pytest.raises(ValueError):
            ProductQuantizer(m=4, ks=300)
        with pytest.raises(ValueError):
            ProductQuantizer(m=5).fit(tiny_ds.base)  # 16 % 5 != 0

    def test_l2_adc_exact_on_centroids(self):
        """A vector equal to a reconstruction has ADC distance equal to its
        true distance (table lookups are exact for codebook points)."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((100, 8)).astype(np.float32)
        pq = ProductQuantizer(m=2, ks=8, metric=Metric.L2, seed=0).fit(data)
        recon = pq.decode(pq.encode(data[:5]))
        q = rng.standard_normal(8).astype(np.float32)
        table = pq.adc_table(q)
        approx = pq.adc_distances(pq.encode(recon), table)
        exact = ((recon - q) ** 2).sum(axis=1)
        assert np.allclose(approx, exact, rtol=1e-4, atol=1e-4)


def _parent_kmeans(data, k, n_iters=25, seed=0, tol=1e-6):
    """The Lloyd loop ``kmeans`` ran before its per-coordinate rewrite, kept
    verbatim as the test oracle: the ``(n, k, d)`` broadcast (or one pass
    per centre past ``n * k = 2e6``) and the per-centre update.  The one
    addition is the third return value, True when a cluster went empty:
    the rewrite defines that re-seed differently."""
    data = check_matrix(data, "data", dtype=np.float64)
    check_positive(k, "k")
    if k > data.shape[0]:
        raise ValueError(f"k={k} exceeds n={data.shape[0]}")
    rng = ensure_rng(seed)
    centers = _kmeanspp_init(data, k, rng)
    assignments = np.zeros(data.shape[0], dtype=np.int64)
    reseeded = False
    for _ in range(n_iters):
        # assignment step (blockwise distance computation)
        d = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(-1) \
            if data.shape[0] * k <= 2_000_000 else None
        if d is None:
            d = np.empty((data.shape[0], k))
            for j in range(k):
                d[:, j] = ((data - centers[j]) ** 2).sum(axis=1)
        new_assignments = d.argmin(axis=1)
        shift = 0.0
        for j in range(k):
            members = data[new_assignments == j]
            if members.shape[0] == 0:
                reseeded = True
                # re-seed from the globally worst-served point
                worst = int(d[np.arange(d.shape[0]), new_assignments].argmax())
                centers[j] = data[worst]
                new_assignments[worst] = j
                continue
            new_center = members.mean(axis=0)
            shift += float(((new_center - centers[j]) ** 2).sum())
            centers[j] = new_center
        assignments = new_assignments
        if shift < tol:
            break
    return centers.astype(np.float32), assignments, reseeded


def _drawn_data(draw_seed, n, dim, scale):
    """Gaussian blobs (a few centres, some spread) at one of three scales."""
    rng = np.random.default_rng(draw_seed)
    blobs = rng.standard_normal((4, dim)) * 3.0
    return (blobs[rng.integers(0, 4, n)] + rng.standard_normal((n, dim))) * scale


class TestKmeansAgainstParentLoop:
    """The per-coordinate Lloyd step against the loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 7), n=st.integers(2, 160), k=st.integers(1, 12),
           draw_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_bit_identical_below_8_coordinates(self, dim, n, k, draw_seed,
                                               seed, scale):
        data = _drawn_data(draw_seed, n, dim, scale)
        k = min(k, n)
        want_centers, want_assign, reseeded = _parent_kmeans(data, k, seed=seed)
        assume(not reseeded)
        centers, assignments = kmeans(data, k, seed=seed)
        np.testing.assert_array_equal(centers, want_centers)
        np.testing.assert_array_equal(assignments, want_assign)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(8, 40), n=st.integers(20, 200), k=st.integers(1, 10),
           draw_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16))
    def test_close_from_8_coordinates(self, dim, n, k, draw_seed, seed):
        """Past 7 coordinates NumPy's broadcast sum is pairwise, the rewrite's
        a running one: the same centres up to float64 rounding."""
        data = _drawn_data(draw_seed, n, dim, 1.0)
        want_centers, _, reseeded = _parent_kmeans(data, k, seed=seed)
        assume(not reseeded)
        centers, _ = kmeans(data, k, seed=seed)
        np.testing.assert_allclose(centers, want_centers, rtol=1e-5, atol=1e-6)

    def test_matches_the_parent_per_centre_branch(self):
        """Past n * k = 2e6 the parent scored one centre at a time; the
        rewrite has one path for both sizes."""
        data = _drawn_data(3, 40_000, 3, 1.0)
        want_centers, want_assign, reseeded = _parent_kmeans(data, 64, n_iters=2,
                                                             seed=5)
        assert not reseeded
        centers, assignments = kmeans(data, 64, n_iters=2, seed=5)
        np.testing.assert_array_equal(centers, want_centers)
        np.testing.assert_array_equal(assignments, want_assign)


class TestKmeansEmptyClusters:
    """An empty cluster takes the worst-served point of a cluster with two
    or more members, then every centre is its members' mean."""

    # 3 distinct points, 7 copies each: k-means++ runs out of distinct
    # points after three picks, so clusters 3.. start empty.
    FEW_DISTINCT = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), 7, axis=0)

    def test_k_finite_centres_each_with_members(self):
        centers, assignments = kmeans(self.FEW_DISTINCT, 6, seed=1)
        assert centers.shape == (6, 2) and np.isfinite(centers).all()
        assert np.bincount(assignments, minlength=6).all()
        # every centre is the mean of its members
        for j in range(6):
            np.testing.assert_allclose(
                centers[j], self.FEW_DISTINCT[assignments == j].mean(axis=0))

    def test_near_duplicate_point_gets_its_own_centre(self):
        """Past two picks k-means++ sees under 1e-12 of mass left and copies
        its first centre; the copy's empty cluster takes the one point left
        unserved, so all three distinct points are centres."""
        data = np.array([[0.0]] * 7 + [[0.5]] * 7 + [[0.5 + 2e-7]])
        for seed in range(6):
            centers, assignments = kmeans(data, 3, seed=seed)
            assert len(np.unique(centers, axis=0)) == 3
            assert np.bincount(assignments, minlength=3).all()

    def test_deterministic_per_seed(self):
        for seed in range(4):
            a = kmeans(self.FEW_DISTINCT, 6, seed=seed)
            b = kmeans(self.FEW_DISTINCT, 6, seed=seed)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           min_size=1, max_size=40),
           k=st.integers(1, 10), seed=st.integers(0, 2**16))
    def test_distinct_points_give_distinct_centres(self, points, k, seed):
        data = np.array(points, dtype=np.float64)
        k = min(k, len(np.unique(data, axis=0)))
        centers, assignments = kmeans(data, k, seed=seed)
        assert len(np.unique(centers, axis=0)) == k
        assert np.bincount(assignments, minlength=k).all()


class TestKmeansMemory:
    def test_peak_stays_near_two_distance_buffers(self):
        """(4000, 48) at k=64: the (n, k, d) broadcast peaked near 98 MB;
        two (n, k) float64 buffers are 4 MB."""
        data = np.random.default_rng(0).standard_normal((4000, 48))
        tracemalloc.start()
        try:
            kmeans(data, 64, n_iters=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEncodeAgainstBroadcast:
    """``encode`` against the per-subspace broadcast argmin it replaced."""

    @staticmethod
    def _broadcast_codes(pq, data):
        sub = data.reshape(data.shape[0], pq.m, -1)
        codes = np.empty((data.shape[0], pq.m), dtype=np.uint8)
        for j in range(pq.m):
            d = ((sub[:, j, None, :] - pq.codebooks[j][None, :, :]) ** 2).sum(-1)
            codes[:, j] = d.argmin(axis=1)
        return codes

    @pytest.mark.parametrize("m", [48, 12, 8])  # 1, 4 and 6 coordinates
    def test_equal_codes(self, m):
        rng = np.random.default_rng(m)
        data = rng.standard_normal((pq_module._ENCODE_ROWS + 37, 48)).astype(np.float32)
        pq = ProductQuantizer(m=m, ks=32, seed=0).fit(data[:400])
        for rows in (data[:1], data[:300], data):  # 1, many, past one block
            np.testing.assert_array_equal(pq.encode(rows),
                                          self._broadcast_codes(pq, rows))

    def test_sync_after_inserts_equals_one_encode(self):
        """Syncs of appended rows, one spanning an encode block boundary,
        give the codes one ``encode`` of the whole matrix gives."""
        rng = np.random.default_rng(4)
        dc = DistanceComputer(rng.standard_normal((300, 16)).astype(np.float32),
                              Metric.L2)
        adc = ADCComputer(dc, ProductQuantizer(m=4, ks=16, seed=0))
        for n_new in (1, pq_module._ENCODE_ROWS + 5, 7):
            dc.append(rng.standard_normal((n_new, 16)).astype(np.float32))
            assert adc.sync() == n_new
        np.testing.assert_array_equal(adc.codes, adc.pq.encode(dc.data))
