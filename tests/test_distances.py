"""Distance kernels: metric semantics, counting, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.distances import (
    DistanceComputer,
    Metric,
    distances_to_query,
    normalize_rows,
    pairwise_distances,
)
from repro.distances.metrics import distance_point


def _vectors(n, d):
    return hnp.arrays(np.float32, (n, d),
                      elements=st.floats(-5, 5, width=32)).filter(
                          lambda a: np.isfinite(a).all())


class TestMetricParse:
    def test_from_string(self):
        assert Metric.parse("l2") is Metric.L2
        assert Metric.parse("IP".lower()) is Metric.INNER_PRODUCT
        assert Metric.parse("cosine") is Metric.COSINE

    def test_case_insensitive(self):
        assert Metric.parse("L2") is Metric.L2

    def test_identity(self):
        assert Metric.parse(Metric.COSINE) is Metric.COSINE

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            Metric.parse("manhattan")
        with pytest.raises(ValueError):
            Metric.parse(123)


class TestPairwise:
    def test_l2_matches_direct(self):
        a = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
        b = np.random.default_rng(1).standard_normal((7, 4)).astype(np.float32)
        d = pairwise_distances(a, b, Metric.L2)
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        assert np.allclose(d, expected, atol=1e-4)

    def test_ip_is_negated_dot(self):
        a = np.eye(3, dtype=np.float32)
        d = pairwise_distances(a, a, Metric.INNER_PRODUCT)
        assert np.allclose(d, -np.eye(3))

    def test_cosine_self_distance_zero(self):
        a = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        d = pairwise_distances(a, a, Metric.COSINE)
        assert np.allclose(np.diag(d), 0.0, atol=1e-5)

    def test_cosine_range(self):
        a = np.random.default_rng(2).standard_normal((10, 5)).astype(np.float32)
        d = pairwise_distances(a, a, Metric.COSINE)
        assert (d >= -1e-5).all() and (d <= 2 + 1e-5).all()

    def test_l2_nonnegative_clamped(self):
        a = np.ones((3, 2), dtype=np.float32)
        d = pairwise_distances(a, a, Metric.L2)
        assert (d >= 0).all()


class TestDistancesToQuery:
    def test_l2(self):
        data = np.array([[0, 0], [3, 4]], dtype=np.float32)
        q = np.zeros(2, dtype=np.float32)
        d = distances_to_query(data, q, Metric.L2)
        assert np.allclose(d, [0, 25])

    def test_cosine_assumes_normalized_rows(self):
        data = normalize_rows(np.array([[1, 0], [0, 1]], dtype=np.float32))
        q = np.array([2.0, 0.0], dtype=np.float32)  # normalized internally
        d = distances_to_query(data, q, Metric.COSINE)
        assert np.allclose(d, [0.0, 1.0], atol=1e-6)


class TestDistancePoint:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(6).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        for metric in Metric:
            single = distance_point(a, b, metric)
            matrix = pairwise_distances(a[None], b[None], metric)[0, 0]
            assert single == pytest.approx(float(matrix), abs=1e-5)

    def test_cosine_zero_vector(self):
        assert distance_point(np.zeros(3), np.ones(3), Metric.COSINE) == 1.0


class TestNormalizeRows:
    def test_unit_norms(self):
        x = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
        n = np.linalg.norm(normalize_rows(x), axis=1)
        assert np.allclose(n, 1.0, atol=1e-6)

    def test_zero_row_safe(self):
        out = normalize_rows(np.zeros((1, 3), dtype=np.float32))
        assert np.isfinite(out).all()


class TestDistanceComputer:
    def test_ndc_counting(self):
        data = np.random.default_rng(0).standard_normal((10, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        q = dc.prepare_query(data[0])
        dc.to_query(np.array([1, 2, 3]), q)
        dc.one_to_query(4, q)
        dc.all_to_query(q)
        assert dc.ndc == 3 + 1 + 10
        assert dc.reset_ndc() == 14
        assert dc.ndc == 0

    def test_cosine_data_normalized_once(self):
        data = 3.0 * np.eye(4, dtype=np.float32)
        dc = DistanceComputer(data, Metric.COSINE)
        assert np.allclose(np.linalg.norm(dc.data, axis=1), 1.0)

    def test_between_symmetric_l2(self):
        data = np.random.default_rng(1).standard_normal((6, 3)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        assert dc.between(1, 4) == pytest.approx(dc.between(4, 1), abs=1e-5)

    def test_append_returns_first_id_and_grows(self):
        data = np.zeros((3, 2), dtype=np.float32)
        dc = DistanceComputer(data, Metric.L2)
        first = dc.append(np.ones((2, 2), dtype=np.float32))
        assert first == 3
        assert dc.size == 5

    def test_append_wrong_dim_rejected(self):
        dc = DistanceComputer(np.zeros((2, 3), dtype=np.float32), Metric.L2)
        with pytest.raises(ValueError):
            dc.append(np.zeros((1, 4), dtype=np.float32))

    def test_append_nan_rejected(self):
        dc = DistanceComputer(np.zeros((2, 3), dtype=np.float32), Metric.L2)
        with pytest.raises(ValueError):
            dc.append(np.full((1, 3), np.nan, dtype=np.float32))

    def test_prepare_query_validates_dim(self):
        dc = DistanceComputer(np.zeros((2, 3), dtype=np.float32), Metric.L2)
        with pytest.raises(ValueError):
            dc.prepare_query(np.zeros(4, dtype=np.float32))

    def test_all_to_query_matches_to_query(self):
        data = np.random.default_rng(5).standard_normal((8, 4)).astype(np.float32)
        for metric in Metric:
            dc = DistanceComputer(data, metric)
            q = dc.prepare_query(data[3])
            assert np.allclose(dc.all_to_query(q),
                               dc.to_query(np.arange(8), q), atol=1e-6)


class TestScalarKernelMatchesBlockKernel:
    """``to_query`` (einsum ``ij,j->i`` over a ``take`` gather) and
    ``block_to_queries`` (``ij,ij->i`` over fancy-indexed rows) must agree
    to the last bit: the batch engine's equivalence with the sequential
    search, and its block-size dispatch, rest on it."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 60), dim=st.integers(1, 70),
           n_ids=st.integers(0, 40), metric=st.sampled_from(list(Metric)),
           tiny_query=st.booleans(), memmap=st.booleans(),
           ids_as=st.sampled_from([np.int32, np.int64, list]))
    def test_bit_identical(self, tmp_path_factory, seed, n, dim, n_ids,
                           metric, tiny_query, memmap, ids_as):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim)).astype(np.float32)
        dc = DistanceComputer(data, metric)
        if memmap:
            dc.use_memmap(tmp_path_factory.mktemp("kernel") / "rows.f32")
        raw = rng.standard_normal(dim).astype(np.float32)
        if tiny_query:
            raw *= np.float32(1e-20)  # COSINE: prepared as float64, unscaled
        q = dc.prepare_query(raw)
        assert (q.dtype == np.float64) == (tiny_query
                                           and metric is Metric.COSINE)
        picked = rng.integers(0, n, n_ids)
        ids = picked.tolist() if ids_as is list else picked.astype(ids_as)

        scalar = dc.to_query(ids, q)
        assert dc.reset_ndc() == n_ids
        block = dc.block_to_queries(picked, q[None, :],
                                    np.zeros(n_ids, dtype=np.int64))
        assert scalar.dtype == block.dtype
        np.testing.assert_array_equal(scalar, block)


@settings(max_examples=40, deadline=None)
@given(_vectors(4, 3))
def test_l2_triangle_inequality_on_sqrt(x):
    """True Euclidean distance (sqrt of our comparison value) satisfies the
    triangle inequality."""
    d = np.sqrt(pairwise_distances(x, x, Metric.L2))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-3


@settings(max_examples=40, deadline=None)
@given(_vectors(5, 4))
def test_pairwise_l2_symmetry(x):
    d = pairwise_distances(x, x, Metric.L2)
    assert np.allclose(d, d.T, atol=1e-4)


@settings(max_examples=40, deadline=None)
@given(_vectors(3, 4), _vectors(4, 4))
def test_pairwise_shape_and_finiteness(a, b):
    for metric in Metric:
        d = pairwise_distances(a, b, metric)
        assert d.shape == (3, 4)
        assert np.isfinite(d).all()
