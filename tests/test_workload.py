"""Drifting workloads and the Sec.-7 online adaptation policy."""

import numpy as np
import pytest

from repro import FixConfig, HNSW, NGFixer, WorkloadAdapter
from repro.datasets import CrossModalConfig, make_drifting_workload
from repro.evalx import compute_ground_truth, recall_at_k


@pytest.fixture(scope="module")
def drift():
    config = CrossModalConfig(n_base=600, dim=20, n_clusters=8,
                              cluster_std=0.15, gap_scale=0.9,
                              query_spread=0.4, n_facets=2, seed=5)
    return make_drifting_workload(config, n_phases=3, queries_per_phase=50,
                                  drift_per_phase=0.6)


def _fixer(drift):
    base = HNSW(drift.base, drift.metric, M=8, ef_construction=40)
    return NGFixer(base, FixConfig(k=8, preprocess="approx", approx_ef=60))


def _recall(fixer, queries, base, metric, k=8, ef=16):
    gt = compute_ground_truth(base, queries, k, metric)
    found = np.vstack([fixer.search(q, k=k, ef=ef).ids[:k] for q in queries])
    return recall_at_k(found, gt.ids)


class TestDriftingWorkload:
    def test_phase_structure(self, drift):
        assert drift.n_phases == 3
        assert drift.gap_angles[0] == 0.0
        assert drift.gap_angles == sorted(drift.gap_angles)
        assert drift.stream().shape == (150, 20)

    def test_later_phases_drift_away(self, drift):
        """Phase-2 queries sit farther from phase-0 queries than phase-1's."""
        from repro.distances import pairwise_distances
        d1 = pairwise_distances(drift.phases[1], drift.phases[0],
                                drift.metric).min(axis=1).mean()
        d2 = pairwise_distances(drift.phases[2], drift.phases[0],
                                drift.metric).min(axis=1).mean()
        assert d2 > d1

    def test_validation(self):
        config = CrossModalConfig(n_base=100, dim=8, seed=0)
        with pytest.raises(ValueError):
            make_drifting_workload(config, n_phases=0)


class TestWorkloadAdapter:
    def test_observe_counts_and_refresh_cadence(self, drift):
        fixer = _fixer(drift)
        adapter = WorkloadAdapter(fixer, refresh_interval=20, window=10,
                                  fix_every=2)
        adapter.observe_batch(drift.phases[1][:40])
        assert adapter.observed == 40
        assert adapter.refreshes == 2

    def test_adaptation_beats_static_on_drifted_phase(self, drift):
        static = _fixer(drift)
        static.fit(drift.phases[0])
        r_static = _recall(static, drift.phases[2], drift.base, drift.metric)

        adapted = _fixer(drift)
        adapted.fit(drift.phases[0])
        adapter = WorkloadAdapter(adapted, refresh_interval=25, window=25)
        adapter.observe_batch(drift.phases[1])
        adapter.observe_batch(drift.phases[2])
        r_adapted = _recall(adapted, drift.phases[2], drift.base, drift.metric)
        assert r_adapted >= r_static

    def test_refresh_frees_and_refills_budget(self, drift):
        fixer = _fixer(drift)
        fixer.fit(drift.phases[0])
        adapter = WorkloadAdapter(fixer, refresh_interval=10_000, window=20,
                                  refresh_drop_fraction=0.5)
        adapter.observe_batch(drift.phases[1][:20])
        report = adapter.refresh()
        assert report["dropped_extra_edges"] > 0
        assert report["replayed"] == 20
        assert fixer.adjacency.n_extra_edges() > 0

    def test_refresh_preserves_rfix_edges(self, drift):
        """Regression: the refresh cycle's edge drop must never remove EH=inf
        RFix navigation edges nor reset their sentinel tag."""
        from repro.graphs.adjacency import EH_INFINITE
        fixer = _fixer(drift)
        fixer.fit(drift.phases[0][:20])
        u = 0
        v = next(x for x in range(1, fixer.dc.size)
                 if not fixer.adjacency.has_edge(u, x))
        assert fixer.adjacency.add_extra_edge(u, v, eh=EH_INFINITE)
        adapter = WorkloadAdapter(fixer, refresh_interval=10_000, window=5,
                                  refresh_drop_fraction=1.0)
        adapter.observe_batch(drift.phases[1][:5])
        adapter.refresh()
        assert fixer.adjacency.extra_neighbors(u).get(v) == EH_INFINITE

    def test_search_passthrough(self, drift):
        fixer = _fixer(drift)
        adapter = WorkloadAdapter(fixer)
        result = adapter.search(drift.phases[0][0], k=5, ef=20)
        assert len(result.ids) == 5

    def test_validation(self, drift):
        fixer = _fixer(drift)
        with pytest.raises(ValueError):
            WorkloadAdapter(fixer, refresh_interval=0)
        with pytest.raises(ValueError):
            WorkloadAdapter(fixer, refresh_drop_fraction=2.0)
