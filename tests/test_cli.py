"""CLI subcommands end to end (direct main() invocation)."""

import json

import pytest

from repro import obs
from repro.cli import main

SMALL = ("--dataset", "webvid-sim", "--scale", "0.1")


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestDatasets:
    def test_lists_registry(self, capsys):
        code, out = _run(capsys, "datasets")
        assert code == 0
        for name in ("laion-sim", "sift-sim", "mainsearch-sim"):
            assert name in out


class TestBuild:
    @pytest.mark.parametrize("index", ["hnsw", "nsg", "roargraph", "vamana"])
    def test_builds(self, capsys, index):
        code, out = _run(capsys, "build", "--dataset", "webvid-sim",
                         "--scale", "0.1", "--index", index)
        assert code == 0
        assert "avg degree" in out

    def test_build_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "g.npz"
        code, out = _run(capsys, "build", "--dataset", "webvid-sim",
                         "--scale", "0.1", "--index", "hnsw",
                         "--out", str(out_path))
        assert code == 0
        assert out_path.exists()


class TestFixEvaluate:
    def test_fix_then_evaluate_saved(self, capsys, tmp_path):
        out_path = tmp_path / "fixed.npz"
        code, out = _run(capsys, "fix", "--dataset", "webvid-sim",
                         "--scale", "0.1", "--out", str(out_path))
        assert code == 0
        assert "extra edges" in out
        code, out = _run(capsys, "evaluate", "--dataset", "webvid-sim",
                         "--scale", "0.1", "--index-file", str(out_path),
                         "--efs", "10", "20")
        assert code == 0
        assert "recall" in out and "NDC/query" in out

    def test_evaluate_fresh(self, capsys):
        code, out = _run(capsys, "evaluate", "--dataset", "webvid-sim",
                         "--scale", "0.1", "--efs", "10")
        assert code == 0
        assert "freshly built" in out


class TestExplain:
    def test_plain_graph(self, capsys):
        code, out = _run(capsys, "explain", "--dataset", "webvid-sim",
                         "--scale", "0.2", "--query-index", "0")
        assert code == 0
        assert "verdict" in out and "recommended ef" in out

    def test_fixed_graph(self, capsys):
        code, out = _run(capsys, "explain", "--dataset", "webvid-sim",
                         "--scale", "0.2", "--query-index", "0", "--fixed")
        assert code == 0
        assert "fixed graph" in out

    def test_out_of_range_index(self, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "--dataset", "webvid-sim", "--scale", "0.2",
                  "--query-index", "99999"])


class TestAnalyze:
    def test_prints_histogram_and_qng(self, capsys):
        code, out = _run(capsys, "analyze", "--dataset", "webvid-sim",
                         "--scale", "0.1")
        assert code == 0
        assert "phase-1 success" in out
        assert "QNG layout" in out


class TestServingCommands:
    """One smoke each for the commands that build a store or a router."""

    def test_durable_compressed_churn_then_recover(self, capsys, tmp_path):
        wal_dir = str(tmp_path / "wal")
        code, out = _run(capsys, "churn", *SMALL, "--wal-dir", wal_dir,
                         "--compressed")
        assert code == 0
        assert "churn (10% mutations):" in out
        assert "PQ: m=" in out and f"recover with: repro recover {wal_dir}" in out
        code, out = _run(capsys, "recover", wal_dir)
        assert code == 0
        assert "recovered" in out and "consistent: True" in out

    def test_delete_storm(self, capsys):
        code, out = _run(capsys, "churn", *SMALL, "--storm",
                         "--storm-every", "1")
        assert code == 0
        assert "delete storm (" in out
        assert "delete storm (0 storms" not in out

    def test_stats_json(self, capsys):
        try:
            code, out = _run(capsys, "stats", *SMALL, "--format", "json")
        finally:
            obs.disable()
            obs.reset()
        assert code == 0
        assert json.loads(out)

    @pytest.mark.timeout(120)
    def test_cluster_through_the_front_door(self, capsys):
        code, out = _run(capsys, "cluster", *SMALL, "--n-shards", "2",
                         "--frontdoor")
        assert code == 0
        assert "2 shards x 1 replicas" in out
        assert "front door:" in out and "router:" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
