"""Cross-module integration: the full NGFix* pipeline on registry datasets,
the paper's comparative orderings at miniature scale, and the public API."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import (
    FixConfig,
    HNSW,
    NGFixer,
    RoarGraph,
    compute_ground_truth,
    evaluate_index,
    load_dataset,
    sweep,
)
from repro.evalx import ef_for_recall


@pytest.fixture(scope="module")
def workload():
    ds = load_dataset("laion-sim", scale=0.25, seed=11)
    gt = compute_ground_truth(ds.base, ds.test_queries, 10, ds.metric)
    return ds, gt


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_import_is_lazy_and_every_name_is_its_homes(self):
        """``import repro`` loads none of its subsystems (PEP 562): not the
        cluster, not serving, not ``asyncio``; each public name then
        resolves to its home module's object and is listed by ``dir``."""
        code = ("import json, sys, repro; print(json.dumps(sorted("
                "m for m in sys.modules if m == 'asyncio' or "
                "m.startswith(('repro.', 'asyncio.')))))")
        src = str(pathlib.Path(repro.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert json.loads(out.stdout) == []
        for name in repro.__all__:
            if name != "__version__":
                home = importlib.import_module(repro._HOME[name])
                assert getattr(repro, name) is getattr(home, name)
        assert set(repro.__all__) <= set(dir(repro))

    def test_quickstart_docstring_flow(self, workload):
        ds, gt = workload
        base = HNSW(ds.base, ds.metric, M=8, ef_construction=40)
        fixer = NGFixer(base, FixConfig(k=10, preprocess="approx"))
        fixer.fit(ds.train_queries[:30])
        point = evaluate_index(fixer, ds.test_queries, gt, k=10, ef=30)
        assert point.recall > 0.5


class TestComparativeOrdering:
    """The relative results the paper's evaluation hinges on."""

    @pytest.fixture(scope="class")
    def curves(self, workload):
        ds, gt = workload
        efs = [10, 20, 40, 80, 160, 320]
        hnsw = HNSW(ds.base, ds.metric, M=10, ef_construction=50)
        sw_hnsw = sweep(hnsw, ds.test_queries, gt, 10, efs)

        fixer = NGFixer(HNSW(ds.base, ds.metric, M=10, ef_construction=50),
                        FixConfig(k=10, max_extra_degree=12, preprocess="exact"))
        fixer.fit(ds.train_queries)
        sw_fix = sweep(fixer, ds.test_queries, gt, 10, efs)

        roar = RoarGraph(ds.base, ds.metric, ds.train_queries, M=20,
                         n_query_neighbors=24, knn_k=12)
        sw_roar = sweep(roar, ds.test_queries, gt, 10, efs)
        return sw_hnsw, sw_fix, sw_roar

    def test_ngfix_dominates_hnsw_at_matching_ef(self, curves):
        sw_hnsw, sw_fix, _ = curves
        by_ef = {p.ef: p.recall for p in sw_hnsw}
        wins = sum(p.recall >= by_ef[p.ef] - 0.01 for p in sw_fix
                   if p.ef in by_ef)
        assert wins >= len(sw_fix) - 1

    def test_ngfix_reaches_high_recall_with_less_ef_than_hnsw(self, curves):
        sw_hnsw, sw_fix, _ = curves
        target = 0.95
        ef_fix = ef_for_recall(sw_fix, target)
        ef_hnsw = ef_for_recall(sw_hnsw, target)
        assert ef_fix is not None
        if ef_hnsw is not None:
            assert ef_fix <= ef_hnsw

    def test_ngfix_beats_roargraph_at_high_recall(self, curves):
        _, sw_fix, sw_roar = curves
        target = 0.95
        ef_fix = ef_for_recall(sw_fix, target)
        ef_roar = ef_for_recall(sw_roar, target)
        assert ef_fix is not None
        if ef_roar is not None:
            assert ef_fix <= ef_roar


class TestSingleModalShape:
    def test_modest_gain_no_regression(self):
        """Fig. 11: on single-modal data NGFix must not hurt (and gains are
        small because hard queries are rare)."""
        ds = load_dataset("sift-sim", scale=0.25, seed=2)
        gt = compute_ground_truth(ds.base, ds.test_queries, 10, ds.metric)
        base = HNSW(ds.base, ds.metric, M=8, ef_construction=40)
        before = evaluate_index(base, ds.test_queries, gt, k=10, ef=30)
        fixer = NGFixer(base, FixConfig(k=10, preprocess="exact"))
        fixer.fit(ds.train_queries)
        after = evaluate_index(fixer, ds.test_queries, gt, k=10, ef=30)
        assert after.recall >= before.recall - 0.02


class TestIdQueriesUnaffected:
    def test_fixing_with_ood_does_not_hurt_id(self, workload):
        """Fig. 10: OOD fixing leaves ID-query performance intact."""
        ds, _ = workload
        assert ds.id_queries is not None
        gt_id = compute_ground_truth(ds.base, ds.id_queries, 10, ds.metric)
        base = HNSW(ds.base, ds.metric, M=8, ef_construction=40)
        before = evaluate_index(base, ds.id_queries, gt_id, k=10, ef=30)
        fixer = NGFixer(base, FixConfig(k=10, preprocess="exact"))
        fixer.fit(ds.train_queries)
        after = evaluate_index(fixer, ds.id_queries, gt_id, k=10, ef=30)
        assert after.recall >= before.recall - 0.03


class TestApproxVsExactPreprocessing:
    def test_near_identical_quality(self, workload):
        """Fig. 13(a): approximate-NN preprocessing ~ exact-NN quality."""
        ds, gt = workload
        results = {}
        for mode in ("exact", "approx"):
            base = HNSW(ds.base, ds.metric, M=8, ef_construction=40)
            fixer = NGFixer(base, FixConfig(k=10, preprocess=mode,
                                            approx_ef=80))
            fixer.fit(ds.train_queries)
            results[mode] = evaluate_index(fixer, ds.test_queries, gt,
                                           k=10, ef=30).recall
        assert abs(results["exact"] - results["approx"]) < 0.06
