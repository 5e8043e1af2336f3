"""Edge-selection rules: RNG/MRNG, alpha, tau, backfill, random."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TauMNG
from repro.distances import DistanceComputer, Metric, pairwise_distances
from repro.graphs import HNSW, Vamana, native
from repro.graphs.pruning import (
    _POOL_CAP,
    _occlusion_prune,
    alpha_prune,
    mrng_prune,
    random_prune,
    rng_prune,
    rng_prune_backfill,
    tau_prune,
)
from tests.conftest import reference_executor


def _dc(points):
    return DistanceComputer(np.asarray(points, dtype=np.float32), Metric.L2)


class TestRngPrune:
    def test_occluded_candidate_dropped(self):
        # 1 sits between 0 and 2 on a line: edge 0->2 is occluded by 0->1.
        dc = _dc([[0.0], [1.0], [2.0]])
        kept = rng_prune(dc, 0, [1, 2], max_degree=5)
        assert kept == [1]

    def test_spread_candidates_kept(self):
        # Two candidates in opposite directions both survive.
        dc = _dc([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        kept = rng_prune(dc, 0, [1, 2], max_degree=5)
        assert sorted(kept) == [1, 2]

    def test_respects_max_degree(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((30, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        kept = rng_prune(dc, 0, list(range(1, 30)), max_degree=4)
        assert len(kept) <= 4

    def test_nearest_always_kept(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((20, 3)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        d = dc.many_between(np.arange(1, 20), 0)
        nearest = int(np.arange(1, 20)[np.argmin(d)])
        kept = rng_prune(dc, 0, list(range(1, 20)), max_degree=8)
        assert nearest in kept

    def test_self_and_duplicates_ignored(self):
        dc = _dc([[0.0], [1.0], [2.0]])
        kept = rng_prune(dc, 0, [0, 1, 1], max_degree=5)
        assert kept == [1]

    def test_empty_candidates(self):
        dc = _dc([[0.0], [1.0]])
        assert rng_prune(dc, 0, [], max_degree=3) == []

    def test_mrng_is_alias(self):
        assert mrng_prune is rng_prune

    def test_angle_property(self):
        """Kept RNG edges from a common point subtend > 60 degrees."""
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 5)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        kept = rng_prune(dc, 0, list(range(1, 40)), max_degree=15)
        u = data[0]
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                va, vb = data[a] - u, data[b] - u
                cos = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
                assert cos < 0.5 + 1e-5  # angle > 60 degrees


class TestAlphaPrune:
    def test_alpha1_equals_rng(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((25, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        cands = list(range(1, 25))
        assert alpha_prune(dc, 0, cands, 10, alpha=1.0) == rng_prune(dc, 0, cands, 10)

    def test_larger_alpha_keeps_more(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        cands = list(range(1, 40))
        base = len(alpha_prune(dc, 0, cands, 40, alpha=1.0))
        relaxed = len(alpha_prune(dc, 0, cands, 40, alpha=2.0))
        assert relaxed >= base

    def test_alpha_below_one_rejected(self):
        dc = _dc([[0.0], [1.0]])
        with pytest.raises(ValueError):
            alpha_prune(dc, 0, [1], 3, alpha=0.5)


class TestTauPrune:
    def test_tau0_equals_rng(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((25, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        cands = list(range(1, 25))
        assert tau_prune(dc, 0, cands, 12, tau=0.0) == rng_prune(dc, 0, cands, 12)

    def test_larger_tau_keeps_more(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((40, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        cands = list(range(1, 40))
        strict = len(tau_prune(dc, 0, cands, 40, tau=0.0))
        relaxed = len(tau_prune(dc, 0, cands, 40, tau=1.0))
        assert relaxed >= strict

    def test_negative_tau_rejected(self):
        dc = _dc([[0.0], [1.0]])
        with pytest.raises(ValueError):
            tau_prune(dc, 0, [1], 3, tau=-0.1)


class TestBackfill:
    def test_fills_to_budget(self):
        # Collinear points: RNG keeps only the nearest; backfill tops up.
        dc = _dc([[0.0], [1.0], [2.0], [3.0], [4.0]])
        plain = rng_prune(dc, 0, [1, 2, 3, 4], max_degree=3)
        filled = rng_prune_backfill(dc, 0, [1, 2, 3, 4], max_degree=3)
        assert len(plain) == 1
        assert len(filled) == 3

    def test_backfill_prefers_nearest(self):
        dc = _dc([[0.0], [1.0], [2.0], [3.0]])
        filled = rng_prune_backfill(dc, 0, [1, 2, 3], max_degree=2)
        assert filled == [1, 2]

    def test_no_fill_needed(self):
        dc = _dc([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert sorted(rng_prune_backfill(dc, 0, [1, 2], 2)) == [1, 2]


class TestRandomPrune:
    def test_within_budget_identity(self):
        assert random_prune([1, 2, 3], 5, seed=0) == [1, 2, 3]

    def test_respects_budget(self):
        out = random_prune(list(range(100)), 7, seed=0)
        assert len(out) == 7
        assert len(set(out)) == 7

    def test_deterministic_with_seed(self):
        assert random_prune(list(range(50)), 5, seed=1) == \
            random_prune(list(range(50)), 5, seed=1)

    def test_dedups(self):
        assert random_prune([1, 1, 2], 5, seed=0) == [1, 2]


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 30), st.integers(1, 10), st.integers(0, 100))
def test_rng_prune_invariants(n, max_degree, seed):
    """Kept list: unique, within budget, subset of candidates, u excluded."""
    data = np.random.default_rng(seed).standard_normal((n, 4)).astype(np.float32)
    dc = DistanceComputer(data, Metric.L2)
    cands = list(range(n))
    kept = rng_prune(dc, 0, cands, max_degree)
    assert len(kept) <= max_degree
    assert len(set(kept)) == len(kept)
    assert 0 not in kept
    assert set(kept) <= set(cands)


def _loop_prune(dc, u, candidate_ids, max_degree, margin, distances=None):
    """The occlusion rule as a per-candidate loop over (distance, id)
    tuples — the implementation before the bit-packed rewrite, kept as the
    reference the vectorized code must reproduce decision for decision."""
    ids = np.asarray(list(candidate_ids), dtype=np.int64)
    ids = ids[ids != u]
    if ids.size == 0:
        return []
    ids = np.unique(ids)
    if distances is None:
        dists = dc.many_between(ids, u)
    else:
        lookup = {int(i): float(d) for i, d in zip(candidate_ids, distances)}
        dists = np.array([lookup[int(i)] for i in ids])
    order = np.argsort(dists, kind="stable")
    candidates = [(float(dists[j]), int(ids[j])) for j in order]
    rows = dc.data[[c for _, c in candidates]]
    between = pairwise_distances(rows, rows, dc.metric)
    kept_rows: list[int] = []
    for i, (d_u, _) in enumerate(candidates):
        if len(kept_rows) >= max_degree:
            break
        if kept_rows and (between[kept_rows, i] < margin(np.float64(d_u))).any():
            continue
        kept_rows.append(i)
    return [candidates[i][1] for i in kept_rows]


def _loop_rng(dc, u, candidate_ids, max_degree, distances=None):
    return _loop_prune(dc, u, candidate_ids, max_degree, lambda d: d,
                       distances)


def _loop_rng_backfill(dc, u, candidate_ids, max_degree, distances=None):
    """``_loop_rng`` plus HNSW's keepPrunedConnections backfill, as
    ``HNSW._select_neighbors`` wrote it before it was folded into
    ``rng_prune_backfill``."""
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if distances is None:
        distances = dc.many_between(candidate_ids, u)
    kept = _loop_rng(dc, u, candidate_ids, max_degree, distances)
    for j in np.argsort(distances, kind="stable"):
        c = int(candidate_ids[j])
        if len(kept) >= max_degree:
            break
        if c != u and c not in kept:
            kept.append(c)
    return kept


def _loop_alpha(dc, u, candidate_ids, max_degree, alpha=1.2, distances=None):
    return _loop_prune(dc, u, candidate_ids, max_degree, lambda d: d / alpha,
                       distances)


def _loop_tau(dc, u, candidate_ids, max_degree, tau=0.0, distances=None):
    return _loop_prune(dc, u, candidate_ids, max_degree,
                       lambda d: d - 3.0 * tau, distances)


class TestVectorizedPruneBuildsTheSameGraph:
    """A build makes the same comparisons with the bit-packed rule as with
    the loop, so it yields the same CSR (hashed) at the same build NDC.
    Bit-identity holds on one executor: both builds run on the reference
    one (the native rule against it is ``TestNativePrune``).  Each patch
    counts its calls, so a target the build no longer reads fails the test
    instead of comparing the vectorized rule with itself."""

    BUILDS = {
        "rng_prune": ("repro.graphs.insertion.rng_prune_backfill",
                      _loop_rng_backfill,
                      lambda ds: HNSW(ds.base, ds.metric, M=8,
                                      ef_construction=40)),
        "alpha_prune": ("repro.graphs.vamana.alpha_prune", _loop_alpha,
                        lambda ds: Vamana(ds.base, ds.metric, R=12, L=24,
                                          seed=0)),
        "tau_prune": ("repro.graphs.tau_mng.tau_prune", _loop_tau,
                      lambda ds: TauMNG(ds.base, ds.metric, R=12, L=24,
                                        knn_k=12, tau=0.05)),
    }

    @staticmethod
    def _fingerprint(index):
        view = index.adjacency.freeze()
        digest = hashlib.sha256(view.indptr.tobytes()
                                + view.indices.tobytes()).hexdigest()
        return digest, index.dc.ndc

    @pytest.mark.parametrize("rule", list(BUILDS))
    def test_csr_hash_and_build_ndc(self, tiny_ds, monkeypatch, rule):
        target, reference, build = self.BUILDS[rule]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return reference(*args, **kwargs)

        with reference_executor():
            vectorized = self._fingerprint(build(tiny_ds))
            monkeypatch.setattr(target, counted)
            assert self._fingerprint(build(tiny_ds)) == vectorized
        assert len(calls) > 0

    def test_duplicate_candidate_keeps_its_last_distance(self):
        dc = _dc(np.random.default_rng(2).standard_normal((12, 3)))
        cands = [3, 5, 3, 7, 9, 5]
        dists = [0.9, 0.2, 0.1, 0.5, 0.4, 0.8]
        assert rng_prune(dc, 0, cands, 4, distances=dists) == \
            _loop_rng(dc, 0, cands, 4, distances=dists)


# -- the native executor of the occlusion rule ---------------------------------

@st.composite
def exact_pools(draw):
    """``(dc, u, candidates, max_degree)`` whose every distance is exact in
    float32 — small integer coordinates for L2 and inner product, rows of
    four +-1 in eight dimensions (unit after dividing by 2) for cosine — so
    both executors compare the same numbers: duplicate vectors (distance
    0), exact ties by the dozen, pools of one and pools past ``_POOL_CAP``."""
    metric = draw(st.sampled_from(list(Metric)))
    n = draw(st.one_of(st.integers(2, 40), st.integers(2, 40),
                       st.just(_POOL_CAP + 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    if metric is Metric.COSINE:
        data = np.zeros((n, 8), dtype=np.float32)
        for row in data:
            row[rng.choice(8, size=4, replace=False)] = rng.choice(
                [-1.0, 1.0], size=4)
    else:
        data = rng.integers(-3, 4, size=(n, draw(st.integers(1, 9))))
    dc = DistanceComputer(data.astype(np.float32), metric)
    u = int(rng.integers(n))
    size = n if n > _POOL_CAP else int(rng.integers(0, 2 * n))
    candidates = rng.integers(0, n, size=size)  # repeats and u included
    max_degree = draw(st.sampled_from([1, 2, 5, 64]))
    return dc, u, candidates, max_degree


needs_native = pytest.mark.skipif(
    not native.enabled(),
    reason=f"no native executor: {native.status()['reason']}")


@needs_native
class TestNativePrune:
    @settings(max_examples=150, deadline=None)
    @given(exact_pools(),
           st.sampled_from([(rng_prune, {}), (rng_prune_backfill, {}),
                            (alpha_prune, {"alpha": 1.0}),
                            (alpha_prune, {"alpha": 1.5}),
                            (tau_prune, {"tau": 0.0}),
                            (tau_prune, {"tau": 0.25})]),
           st.booleans())
    def test_same_kept_list_as_the_reference(self, pool, rule, with_distances):
        dc, u, candidates, max_degree = pool
        prune, kwargs = rule
        if with_distances:
            kwargs = dict(kwargs,
                          distances=dc.many_between(candidates, u))
        with reference_executor():
            want = prune(dc, u, candidates, max_degree, **kwargs)
        assert prune(dc, u, candidates, max_degree, **kwargs) == want

    def test_kernel_against_the_reference_on_a_real_pool(self, tiny_ds):
        """Float data: the kernel's float32 row distances against NumPy's
        matrix product — equal lists on pools without a near-tie."""
        dc = DistanceComputer(tiny_ds.base, tiny_ds.metric)
        kind, rows = dc.native_rows()
        rng = np.random.default_rng(5)
        for u in rng.choice(dc.size, size=40, replace=False).tolist():
            ids = np.setdiff1d(rng.choice(dc.size, size=60, replace=False),
                               [u])
            d_u = dc.many_between(ids, u).astype(np.float64)
            order = np.lexsort((ids, d_u))
            ids, d_u = ids[order], d_u[order]
            assert (native.occlusion_prune(kind, rows, ids, d_u, 16)
                    == _occlusion_prune(dc, ids, d_u, 16))

    def test_subclass_and_foreign_layouts_stay_on_the_reference(
            self, monkeypatch):
        data = np.random.default_rng(0).standard_normal((20, 4))
        pool = list(range(1, 20))
        want = rng_prune(DistanceComputer(data, "l2"), 0, pool, 4)
        calls = []
        monkeypatch.setattr(native, "occlusion_prune",
                            lambda *args: calls.append(args))
        fortran = DistanceComputer(data, "l2")
        fortran._data = np.asfortranarray(fortran._data)

        class Sub(DistanceComputer):
            pass

        for dc in (fortran, Sub(data, "l2")):
            assert dc.native_rows() is None
            assert rng_prune(dc, 0, pool, 4) == want
        assert calls == []
