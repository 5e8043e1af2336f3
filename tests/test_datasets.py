"""Dataset container, generators, registry, and OOD measurement."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import (
    CrossModalConfig,
    Dataset,
    dataset_statistics,
    list_datasets,
    load_dataset,
    make_clustered_data,
    make_cross_modal_dataset,
    make_single_modal_dataset,
    mahalanobis_to_distribution,
    ood_report,
    sliced_wasserstein,
)
from repro.datasets.distribution import wasserstein_1d
from repro.datasets.registry import CROSS_MODAL_NAMES, SINGLE_MODAL_NAMES
from repro.datasets.synthetic import perturb_base_points
from repro.distances import Metric


class TestDatasetContainer:
    def _mk(self, **kwargs):
        base = dict(
            name="t", base=np.zeros((10, 4), dtype=np.float32),
            train_queries=np.zeros((3, 4), dtype=np.float32),
            test_queries=np.zeros((2, 4), dtype=np.float32), metric="l2",
        )
        base.update(kwargs)
        return Dataset(**base)

    def test_properties(self):
        ds = self._mk()
        assert ds.n == 10 and ds.dim == 4
        assert ds.metric is Metric.L2

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            self._mk(train_queries=np.zeros((3, 5), dtype=np.float32))

    def test_id_queries_dim_checked(self):
        with pytest.raises(ValueError, match="id_queries"):
            self._mk(id_queries=np.zeros((2, 5), dtype=np.float32))

    def test_subset(self):
        ds = self._mk().subset(n_base=4, n_train=2, n_test=1)
        assert ds.n == 4
        assert len(ds.train_queries) == 2
        assert len(ds.test_queries) == 1

    def test_repr_mentions_name(self):
        assert "t" in repr(self._mk())


class TestClusteredData:
    def test_shape_and_dtype(self):
        x = make_clustered_data(100, 8, n_clusters=4, seed=0)
        assert x.shape == (100, 8)
        assert x.dtype == np.float32

    def test_normalized_option(self):
        x = make_clustered_data(50, 8, seed=0, normalize=True)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-5)

    def test_deterministic(self):
        a = make_clustered_data(30, 4, seed=5)
        b = make_clustered_data(30, 4, seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_data(self):
        a = make_clustered_data(30, 4, seed=5)
        b = make_clustered_data(30, 4, seed=6)
        assert not np.array_equal(a, b)

    def test_clustered_not_uniform(self):
        """Points concentrate near centers: mean NN distance far below
        random-pair distance."""
        x = make_clustered_data(200, 16, n_clusters=4, cluster_std=0.05, seed=0)
        from repro.distances import pairwise_distances
        d = pairwise_distances(x, x, Metric.L2)
        np.fill_diagonal(d, np.inf)
        assert d.min(axis=1).mean() < 0.2 * d[np.isfinite(d)].mean()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_clustered_data(0, 4)
        with pytest.raises(ValueError):
            make_clustered_data(4, 0)


class TestPerturbBase:
    def test_queries_near_base(self):
        base = make_clustered_data(100, 8, seed=0)
        q = perturb_base_points(base, 20, noise_std=0.01, seed=1)
        from repro.distances import pairwise_distances
        nearest = pairwise_distances(q, base, Metric.L2).min(axis=1)
        assert (nearest < 0.1).all()

    def test_hard_fraction_increases_spread(self):
        base = make_clustered_data(100, 8, seed=0)
        easy = perturb_base_points(base, 50, 0.01, seed=1, hard_fraction=0.0)
        hard = perturb_base_points(base, 50, 0.01, seed=1, hard_fraction=1.0,
                                   hard_noise_std=0.5)
        from repro.distances import pairwise_distances
        d_easy = pairwise_distances(easy, base, Metric.L2).min(axis=1).mean()
        d_hard = pairwise_distances(hard, base, Metric.L2).min(axis=1).mean()
        assert d_hard > 5 * d_easy


class TestCrossModal:
    def test_counts_respected(self, tiny_ds):
        assert tiny_ds.n == 400
        assert len(tiny_ds.train_queries) == 80
        assert len(tiny_ds.test_queries) == 40
        assert tiny_ds.id_queries is not None

    def test_queries_normalized(self, tiny_ds):
        assert np.allclose(np.linalg.norm(tiny_ds.test_queries, axis=1), 1.0,
                           atol=1e-5)

    def test_queries_are_ood(self, tiny_ds):
        report = ood_report(tiny_ds.test_queries, tiny_ds.base, seed=0)
        assert report["is_ood"]
        assert (report["wasserstein_query_vs_base"]
                > 2 * report["wasserstein_base_control"])

    def test_id_queries_are_not_ood(self, tiny_ds):
        report = ood_report(tiny_ds.id_queries, tiny_ds.base, seed=0)
        assert (report["wasserstein_query_vs_base"]
                < report["wasserstein_query_vs_base"] * 10)  # finite
        # ID queries hug the base distribution far more than OOD ones.
        ood = ood_report(tiny_ds.test_queries, tiny_ds.base, seed=0)
        assert (report["wasserstein_query_vs_base"]
                < 0.5 * ood["wasserstein_query_vs_base"])

    def test_drift_fraction(self):
        config = dataclasses.replace(
            CrossModalConfig(n_base=200, n_train=20, n_test=40, dim=8,
                             n_clusters=4, seed=1),
            drift_fraction=0.25)
        ds = make_cross_modal_dataset("d", config)
        assert len(ds.test_queries) == 40

    def test_invalid_drift_fraction(self):
        with pytest.raises(ValueError):
            CrossModalConfig(drift_fraction=1.5)

    def test_train_test_disjoint(self, tiny_ds):
        """Test queries differ from historical ones (paper dedupes them)."""
        train = {t.tobytes() for t in tiny_ds.train_queries}
        assert not any(t.tobytes() in train for t in tiny_ds.test_queries)


class TestSingleModal:
    def test_build(self):
        ds = make_single_modal_dataset("s", n=200, dim=8, n_train=20,
                                       n_test=10, seed=0)
        assert ds.modality == "single-modal"
        assert ds.n == 200

    def test_queries_in_distribution(self):
        ds = make_single_modal_dataset("s", n=300, dim=8, n_train=30,
                                       n_test=100, seed=0, hard_fraction=0.0)
        report = ood_report(ds.test_queries, ds.base, seed=0)
        assert not report["is_ood"]


class TestRegistry:
    def test_list_names(self):
        names = list_datasets()
        assert set(CROSS_MODAL_NAMES) | set(SINGLE_MODAL_NAMES) == set(names)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_scale_shrinks(self):
        ds = load_dataset("webvid-sim", scale=0.1)
        assert ds.n == 250

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("webvid-sim", scale=0)

    @pytest.mark.parametrize("name", list_datasets())
    def test_all_datasets_generate(self, name):
        ds = load_dataset(name, scale=0.1)
        assert ds.n > 0
        assert len(ds.train_queries) > 0
        assert len(ds.test_queries) > 0

    def test_statistics_rows(self):
        rows = dataset_statistics(["sift-sim"], scale=0.1)
        assert rows[0].name == "sift-sim"
        assert rows[0].metric == "l2"


class TestDistributionMetrics:
    def test_mahalanobis_zero_at_mean(self):
        ref = np.random.default_rng(0).standard_normal((200, 4)).astype(np.float32)
        d = mahalanobis_to_distribution(ref.mean(0, keepdims=True), ref)
        assert d[0] < 0.2

    def test_mahalanobis_grows_with_offset(self):
        ref = np.random.default_rng(0).standard_normal((200, 4)).astype(np.float32)
        near = mahalanobis_to_distribution(ref[:10], ref)
        far = mahalanobis_to_distribution(ref[:10] + 10.0, ref)
        assert far.mean() > 3 * near.mean()

    def test_wasserstein_identical_is_small(self):
        x = np.random.default_rng(0).standard_normal((300, 4)).astype(np.float32)
        assert sliced_wasserstein(x, x, seed=0) < 1e-9

    def test_wasserstein_detects_shift(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 4)).astype(np.float32)
        b = a + np.array([2, 0, 0, 0], dtype=np.float32)
        assert sliced_wasserstein(a, b, seed=0) > 0.5

    def test_wasserstein_dim_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((3, 2), dtype=np.float32),
                               np.zeros((3, 3), dtype=np.float32))


class TestWasserstein1D:
    """The NumPy 1-D Wasserstein against SciPy's, where SciPy is installed."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(5)
        yield rng.standard_normal(37), rng.standard_normal(101) + 0.4
        # ties inside and across the samples, duplicated values
        yield (rng.integers(-3, 4, 50).astype(np.float64),
               rng.integers(-2, 6, 23).astype(np.float64))
        yield np.array([1.0, 1.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0])
        yield np.array([0.5]), np.array([0.5, 0.5, 3.0, -1.0, 0.5])
        yield (rng.standard_normal(300).astype(np.float32),
               rng.standard_normal(299).astype(np.float32) * 2.0)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for u, v in self._samples():
            want = stats.wasserstein_distance(u, v)
            assert wasserstein_1d(u, v) == pytest.approx(want, rel=1e-12,
                                                         abs=0.0)
            assert wasserstein_1d(v, u) == pytest.approx(want, rel=1e-12,
                                                         abs=0.0)

    def test_equal_samples_and_a_shift(self):
        x = np.random.default_rng(1).standard_normal(64)
        assert wasserstein_1d(x, x[::-1]) == 0.0
        assert wasserstein_1d(x, x + 2.5) == pytest.approx(2.5, rel=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d(np.array([]), np.array([1.0]))


def test_import_loads_no_scipy():
    """``import repro`` stays off SciPy: it is a test-only dependency."""
    code = ("import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    import repro
    src = str(pathlib.Path(repro.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
