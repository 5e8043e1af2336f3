"""k-means and product quantization."""

import numpy as np
import pytest

from repro.distances import Metric
from repro.quantization import ProductQuantizer, kmeans


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

