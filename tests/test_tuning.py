"""Trace-driven autotuner + hardness planner: config round-trips, fitting,
routing budgets, and planner-off bit-identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import recover
from repro.store import VectorStore
from repro.tuning import (
    BinSetting,
    HardnessPlanner,
    TunedConfig,
    coerce_tuned_config,
    fit_landmarks,
    fit_tuned_config,
    suggest_ef_grid,
)

K = 10


def make_config(tiny_ds, *, easy_ef=10, hard_ef=80, n_landmarks=4):
    """A hand-built 3-bin config over the tiny dataset's train queries."""
    landmarks = fit_landmarks(tiny_ds.train_queries, n_landmarks,
                              tiny_ds.metric, seed=0)
    from repro.distances import Metric
    return TunedConfig(
        k=K, target_recall=0.9, metric=Metric.parse(tiny_ds.metric).value,
        edges=[0.1, 0.3],
        bins=[BinSetting(ef=easy_ef), BinSetting(ef=30),
              BinSetting(ef=hard_ef)],
        landmarks=landmarks, default_ef=30)


@pytest.fixture(scope="module")
def tuning_store(tiny_ds):
    """A built serving store over the tiny dataset (module-shared;
    planner attach/detach is the only mutation tests may perform)."""
    s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                    ef_construction=40, seed=3)
    s.add(tiny_ds.base)
    s.build()
    s.fit_history(tiny_ds.train_queries)
    yield s
    s.close()


@pytest.fixture(scope="module")
def fitted_config(tiny_ds, tuning_store, tiny_train_gt):
    return fit_tuned_config(
        tuning_store.searcher, tiny_ds.train_queries, K,
        gt_ids=tiny_train_gt.top(K).ids, n_landmarks=4, seed=0)


class TestTunedConfig:
    def test_round_trip_dict(self, tiny_ds, fitted_config):
        again = TunedConfig.from_dict(fitted_config.to_dict())
        assert again.k == fitted_config.k
        assert again.default_ef == fitted_config.default_ef
        assert again.bins == fitted_config.bins
        np.testing.assert_allclose(again.edges, fitted_config.edges)
        np.testing.assert_allclose(
            again.landmark_matrix(), fitted_config.landmark_matrix(),
            atol=1e-6)

    def test_round_trip_file(self, tmp_path, fitted_config):
        path = tmp_path / "tuned.json"
        fitted_config.save(path)
        again = TunedConfig.load(path)
        assert again.bins == fitted_config.bins
        np.testing.assert_allclose(again.edges, fitted_config.edges)

    def test_coerce_forms(self, tmp_path, fitted_config):
        assert coerce_tuned_config(None) is None
        assert coerce_tuned_config(fitted_config) is fitted_config
        assert coerce_tuned_config(
            fitted_config.to_dict()).bins == fitted_config.bins
        path = tmp_path / "tuned.json"
        fitted_config.save(path)
        assert coerce_tuned_config(str(path)).bins == fitted_config.bins

    def test_setting_clamps_bin(self, tiny_ds):
        config = make_config(tiny_ds)
        assert config.setting(-3) == config.bins[0]
        assert config.setting(99) == config.bins[-1]

    def test_bad_route_rejected(self):
        with pytest.raises(ValueError, match="route"):
            BinSetting(ef=10, route="warp")


class TestFitting:
    def test_shape_and_grid(self, fitted_config):
        assert fitted_config.n_bins == 3
        assert len(fitted_config.edges) == 2
        assert list(fitted_config.edges) == sorted(fitted_config.edges)
        grid = fitted_config.meta["ef_grid"]
        assert fitted_config.default_ef in grid
        for setting in fitted_config.bins:
            if setting.route != "exact":
                assert setting.ef in grid

    def test_no_bin_above_default_cost_for_free(self, fitted_config):
        # The per-bin solver never *raises* ef above the single-ef
        # baseline without a recall reason; the easiest bin in particular
        # must not exceed the global default.
        assert fitted_config.bins[0].ef <= fitted_config.default_ef

    def test_crossfit_bins_are_populated(self, fitted_config):
        # Landmarks are fitted on the calibration queries themselves;
        # without cross-fitting all hardnesses collapse to ~0 and every
        # bin beyond the first is empty.  The bin table must show
        # calibration members in more than one bin.
        table = fitted_config.meta["bin_table"]
        occupied = [b for b, row in table.items() if row["n_queries"] > 0]
        assert len(occupied) >= 2

    def test_suggest_ef_grid_monotone(self):
        grid = suggest_ef_grid(K)
        assert grid == sorted(set(grid))
        assert grid[0] >= K
        anchored = suggest_ef_grid(K, {"ef_mean": 60})
        assert anchored == sorted(set(anchored))
        assert any(ef >= 60 for ef in anchored)


class TestStoreRoundTrip:
    def test_constructor_attaches_planner(self, tiny_ds, fitted_config):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                        ef_construction=40, seed=3,
                        tuned_config=fitted_config)
        s.add(tiny_ds.base)
        s.build()
        try:
            assert s.searcher.planner is not None
            assert s.stats()["tuned"]["n_bins"] == fitted_config.n_bins
            hits = s.search(tiny_ds.test_queries[0], k=5)
            assert len(hits) == 5
        finally:
            s.close()

    def test_apply_and_drop_at_runtime(self, tuning_store, fitted_config):
        tuning_store.apply_tuned_config(fitted_config)
        try:
            assert tuning_store.searcher.planner is not None
            results = tuning_store.search_batch(
                np.atleast_2d(tuning_store._fixer.dc.data[:4]), K, None)
            assert len(results) == 4
        finally:
            tuning_store.apply_tuned_config(None)
        assert tuning_store.searcher.planner is None
        assert "tuned" not in tuning_store.stats()

    def test_recovery_restores_tuned_config(self, tiny_ds, fitted_config,
                                            tmp_path):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                        ef_construction=40, seed=3, wal_dir=tmp_path,
                        tuned_config=fitted_config)
        s.add(tiny_ds.base)
        s.build()
        s.close()

        recovered, report = recover(tmp_path)
        try:
            assert recovered.tuned_config is not None
            assert (recovered.tuned_config.default_ef
                    == fitted_config.default_ef)
            assert recovered.tuned_config.bins == fitted_config.bins
            assert recovered.searcher.planner is not None
            results = recovered.search_batch(tiny_ds.test_queries[:4], K,
                                             None)
            assert len(results) == 4
        finally:
            recovered.close()

    def test_apply_on_durable_store_persists(self, tiny_ds, fitted_config,
                                             tmp_path):
        s = VectorStore(dim=tiny_ds.dim, metric=tiny_ds.metric, M=8,
                        ef_construction=40, seed=3, wal_dir=tmp_path)
        s.add(tiny_ds.base)
        s.build()
        s.apply_tuned_config(fitted_config)
        s.close()

        recovered, _ = recover(tmp_path)
        try:
            assert recovered.tuned_config is not None
            assert recovered.tuned_config.bins == fitted_config.bins
        finally:
            recovered.close()

    def test_router_spec_carries_tuned_config(self, tiny_ds, fitted_config):
        from repro.cluster import ClusterRouter
        router = ClusterRouter(dim=tiny_ds.dim, metric=tiny_ds.metric,
                               n_shards=2, tuned_config=fitted_config)
        assert router.tuned_config == fitted_config.to_dict()


class TestPlannerRouting:
    def test_predict_bins_in_range(self, tiny_ds):
        planner = HardnessPlanner(make_config(tiny_ds))
        bins = planner.predict(tiny_ds.test_queries)
        assert bins.shape == (len(tiny_ds.test_queries),)
        assert bins.min() >= 0 and bins.max() < planner.n_bins

    def test_prior_shift_moves_bins_harder(self, tiny_ds):
        config = make_config(tiny_ds)
        calm = HardnessPlanner(config, score_fn=lambda: 0.0)
        stressed = HardnessPlanner(config, score_fn=lambda: 1.0)
        base = calm.predict(tiny_ds.test_queries)
        shifted = stressed.predict(tiny_ds.test_queries)
        assert (shifted >= base).all()
        assert (shifted <= planner_max(config)).all()
        assert stressed.n_shifted == len(tiny_ds.test_queries)

    def test_plan_coalesces_identical_settings(self, tiny_ds):
        config = make_config(tiny_ds, easy_ef=30, hard_ef=30)
        config.bins[1] = BinSetting(ef=30)
        planner = HardnessPlanner(config, adapt=False)
        bins, groups = planner.plan(tiny_ds.test_queries)
        assert len(groups) == 1
        _, idx, setting = groups[0]
        assert setting.ef == 30
        assert sorted(idx.tolist()) == list(range(len(tiny_ds.test_queries)))
        assert len(np.unique(bins)) >= 1  # bins still reported per query

    def test_plan_covers_batch_exactly_once(self, tiny_ds):
        planner = HardnessPlanner(make_config(tiny_ds), adapt=False)
        _, groups = planner.plan(tiny_ds.test_queries)
        seen = np.concatenate([idx for _, idx, _ in groups])
        assert sorted(seen.tolist()) == list(range(len(tiny_ds.test_queries)))

    def test_easy_queries_stay_under_hard_ndc_budget(self, tiny_ds,
                                                     tuning_store):
        """Predicted-easy traffic must never out-spend the hard bin: the
        whole point of routing is that the easy group's per-query NDC is
        bounded by what the hard setting would have paid."""
        config = make_config(tiny_ds, easy_ef=10, hard_ef=80)
        searcher = tuning_store.searcher
        dc = tuning_store._fixer.dc
        queries = tiny_ds.test_queries[:16]

        before = dc.ndc
        searcher.search_group(queries, K, config.bins[0])
        easy_ndc = (dc.ndc - before) / len(queries)

        before = dc.ndc
        searcher.search_group(queries, K, config.bins[-1])
        hard_ndc = (dc.ndc - before) / len(queries)
        assert easy_ndc <= hard_ndc

    def test_single_query_is_the_planned_block_of_one(self, tiny_ds,
                                                      tuning_store):
        """``search(q)`` and ``search_batch(q[None])[0]`` are one planned
        search: same bin setting, same landmark entry, same feedback."""
        searcher = tuning_store.searcher
        tuning_store.apply_tuned_config(make_config(tiny_ds))
        try:
            planner = searcher.planner
            planner.adapt = False  # no landmark drift between the two calls
            for q in tiny_ds.test_queries[:20]:
                planned = planner.stats()["planned"]
                noted = int(planner.confusion.sum())
                one = searcher.search(q, K)
                assert planner.stats()["planned"] == planned + 1
                assert planner.confusion.sum() == noted + 1
                block = searcher.search_batch(q[None], K)[0]
                assert planner.stats()["planned"] == planned + 2
                assert planner.confusion.sum() == noted + 2
                np.testing.assert_array_equal(one.ids, block.ids)
                np.testing.assert_array_equal(one.distances, block.distances)
                assert one.n_hops == block.n_hops
        finally:
            tuning_store.apply_tuned_config(None)

    def test_entry_for_block_respects_horizon_and_excluded(self, tiny_ds):
        config = make_config(tiny_ds)
        locate_calls = []

        def locate(vec):
            locate_calls.append(vec)
            return 7

        planner = HardnessPlanner(config, locate_fn=locate)
        entry = planner.entry_for_block(tiny_ds.test_queries[:4])
        assert entry == 7
        assert len(locate_calls) == 1
        # Cached on the second call.
        assert planner.entry_for_block(tiny_ds.test_queries[:4]) == 7
        assert len(locate_calls) == 1
        # Beyond the epoch horizon or tombstoned: fall back to None.
        assert planner.entry_for_block(tiny_ds.test_queries[:4],
                                       n_nodes=5) is None
        assert planner.entry_for_block(tiny_ds.test_queries[:4],
                                       excluded={7}) is None

    def test_adaptation_drifts_landmarks(self, tiny_ds):
        planner = HardnessPlanner(make_config(tiny_ds), adapt_rate=0.5)
        before = planner._landmarks.copy()
        planner.observe(tiny_ds.test_queries)
        assert planner.n_adapted == len(tiny_ds.test_queries)
        assert not np.allclose(planner._landmarks, before)

    def test_note_outcomes_fills_confusion(self, tiny_ds):
        planner = HardnessPlanner(make_config(tiny_ds), adapt=False)

        class _R:
            def __init__(self, hops):
                self.n_hops = hops

        bins = np.array([0, 0, 2, 2])
        planner.note_outcomes(bins, [_R(1), _R(2), _R(9), _R(10)])
        assert planner.confusion.sum() == 4
        stats = planner.stats()
        assert stats["confusion"] == planner.confusion.tolist()


def planner_max(config):
    return config.n_bins - 1


class TestPlannerOffIdentity:
    """With no planner attached — or an explicit ef — serving is
    bit-identical to the fixed-default path."""

    @settings(max_examples=15, deadline=None)
    @given(start=st.integers(min_value=0, max_value=30),
           n=st.integers(min_value=1, max_value=8),
           ef=st.sampled_from([10, 17, 30, 55]))
    def test_explicit_ef_bypasses_planner(self, tiny_ds, tuning_store,
                                          fitted_config, start, n, ef):
        queries = tiny_ds.test_queries[start:start + n]
        searcher = tuning_store.searcher
        tuning_store.apply_tuned_config(None)
        baseline = searcher.search_batch(queries, K, ef)
        tuning_store.apply_tuned_config(fitted_config)
        try:
            planned = searcher.search_batch(queries, K, ef)
        finally:
            tuning_store.apply_tuned_config(None)
        for b, p in zip(baseline, planned):
            np.testing.assert_array_equal(b.ids, p.ids)
            np.testing.assert_allclose(b.distances, p.distances)

    @settings(max_examples=10, deadline=None)
    @given(start=st.integers(min_value=0, max_value=30),
           n=st.integers(min_value=1, max_value=8))
    def test_no_planner_default_matches_explicit(self, tiny_ds, tuning_store,
                                                 start, n):
        queries = tiny_ds.test_queries[start:start + n]
        searcher = tuning_store.searcher
        tuning_store.apply_tuned_config(None)
        defaulted = searcher.search_batch(queries, K, None)
        explicit = searcher.search_batch(queries, K, max(K, 10))
        for d, e in zip(defaulted, explicit):
            np.testing.assert_array_equal(d.ids, e.ids)
            np.testing.assert_allclose(d.distances, e.distances)

    def test_single_query_explicit_ef_identical(self, tiny_ds, tuning_store,
                                                fitted_config):
        searcher = tuning_store.searcher
        q = tiny_ds.test_queries[0]
        tuning_store.apply_tuned_config(None)
        baseline = searcher.search(q, K, ef=25)
        tuning_store.apply_tuned_config(fitted_config)
        try:
            planned = searcher.search(q, K, ef=25)
        finally:
            tuning_store.apply_tuned_config(None)
        np.testing.assert_array_equal(baseline.ids, planned.ids)
