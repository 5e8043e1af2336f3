"""BENCHMARK.json, the metric catalogue and what a run really emits agree."""

import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from perf import config as cfg
from perf.oracle import Tally, ground_truth, recall_rows, recall_summary

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert BENCH["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # 4 + 22 runs per workload, each well inside its share of 3420 s.
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_benchmark_json_matches_the_catalogue():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        list(cfg.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCH["end_to_end"]] == cfg.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == cfg.PER_LAYER
    assert BENCH["run_seconds"] == cfg.REFERENCE_SECONDS


def test_no_legacy_style_file_names():
    assert not list(PERF.rglob("bench_*.py"))


def test_op_counts_scale_with_seconds_and_quarter_when_traced():
    full = cfg.scaled(cfg.FULL, cfg.REFERENCE_SECONDS, trace=False)
    assert full == cfg.FULL
    half = cfg.scaled(cfg.FULL, cfg.REFERENCE_SECONDS / 2, trace=False)
    assert half.churn_rounds == cfg.FULL.churn_rounds // 2
    traced = cfg.scaled(cfg.FULL, cfg.REFERENCE_SECONDS, trace=True)
    assert traced.cluster_cycles == cfg.FULL.cluster_cycles // 4
    assert traced.n_base == cfg.FULL.n_base
    assert traced.entry_delete_rounds == cfg.FULL.entry_delete_rounds


def test_oracle_recall_and_tally():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((50, 8)).astype(np.float32)
    truth = ground_truth(vectors, vectors[:5], k=3)
    assert truth[:, 0].tolist() == [0, 1, 2, 3, 4]     # each row finds itself
    live = np.ones(50, dtype=bool)
    live[[0, 1]] = False
    masked = ground_truth(vectors, vectors[:5], k=3, live=live)
    assert not np.isin(masked, [0, 1]).any()
    found = truth.copy()
    found[0, 2] = -1                                   # a short answer
    assert recall_rows(found, truth).tolist() == [2 / 3, 1, 1, 1, 1]
    assert recall_summary(np.array([0.5] + [1.0] * 19)) == (0.975, 0.75)
    tally = Tally()
    dead = np.zeros(found.shape, dtype=bool)
    dead[1, 0] = True
    tally.check_results(found, raised=np.array([0, 0, 1, 0, 0], dtype=bool),
                        degraded=np.array([0, 0, 0, 1, 0], dtype=bool), dead=dead)
    assert (tally.attempted, tally.failed) == (5, 4)
    assert dict(tally.reasons) == {"raised": 1, "degraded": 1, "short": 1,
                                   "deleted_id": 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(cfg.WORKLOADS))
def test_every_workload_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0      # end-to-end metrics are never 0
    assert not list((PERF / "out" / "tmp").glob(f"{workload}-*"))
    if trace:
        spans = PERF / "out" / f"{workload}.spans.jsonl"
        assert json.loads(spans.read_text().splitlines()[0])["name"]
