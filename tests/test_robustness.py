"""Failure injection and degenerate-input robustness across the stack."""

import numpy as np
import pytest

from repro import (
    HNSW,
    BruteForceIndex,
    FixConfig,
    NGFixer,
    compute_ground_truth,
)
from repro.core.escape_hardness import escape_hardness
from repro.core.ngfix import ngfix_query
from repro.distances import DistanceComputer, Metric
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.search import greedy_search


class TestDuplicateVectors:
    """Corpora with exact duplicates must not break builds or fixing."""

    @pytest.fixture(scope="class")
    def dup_data(self):
        rng = np.random.default_rng(0)
        unique = rng.standard_normal((80, 8)).astype(np.float32)
        return np.vstack([unique, unique[:40]])  # 40 exact duplicates

    def test_hnsw_builds_and_searches(self, dup_data):
        index = HNSW(dup_data, Metric.L2, M=6, ef_construction=30)
        result = index.search(dup_data[0], k=5, ef=20)
        assert len(result.ids) == 5
        assert result.distances[0] == pytest.approx(0.0, abs=1e-6)

    def test_ngfix_handles_duplicate_neighbors(self, dup_data):
        index = HNSW(dup_data, Metric.L2, M=6, ef_construction=30)
        fixer = NGFixer(index, FixConfig(k=6, preprocess="exact"))
        fixer.fit(dup_data[:10] + 0.01)  # queries on top of duplicates
        assert fixer.adjacency.n_extra_edges() >= 0  # no crash

    def test_ground_truth_ties_deterministic(self, dup_data):
        gt1 = compute_ground_truth(dup_data, dup_data[:3], 5, Metric.L2)
        gt2 = compute_ground_truth(dup_data, dup_data[:3], 5, Metric.L2)
        assert np.array_equal(gt1.ids, gt2.ids)


class TestSingularGeometry:
    def test_all_identical_points(self):
        data = np.ones((30, 4), dtype=np.float32)
        index = HNSW(data, Metric.L2, M=4, ef_construction=10)
        result = index.search(np.ones(4, dtype=np.float32), k=3, ef=10)
        assert len(result.ids) == 3

    def test_zero_vectors_cosine(self):
        data = np.zeros((10, 4), dtype=np.float32)
        data[0] = 1.0
        dc = DistanceComputer(data, Metric.COSINE)
        q = dc.prepare_query(np.zeros(4, dtype=np.float32))
        assert np.isfinite(dc.all_to_query(q)).all()

    def test_single_dimension(self):
        data = np.arange(50, dtype=np.float32)[:, None]
        index = HNSW(data, Metric.L2, M=4, ef_construction=10)
        result = index.search(np.array([25.4], dtype=np.float32), k=1, ef=10)
        assert result.ids[0] == 25

    def test_two_point_corpus(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        index = BruteForceIndex(data, Metric.L2)
        assert index.search(np.zeros(2, dtype=np.float32), k=2).ids.tolist() == [0, 1]


class TestHostileGraphStructure:
    def test_search_on_self_loop_free_graph(self):
        """Adjacency refuses self loops, so a malicious set_base_neighbors
        with self references cannot create infinite expansion."""
        adjacency = AdjacencyStore(4)
        adjacency.set_base_neighbors(0, [0, 0, 1])
        assert adjacency.base_neighbors(0) == [1]

    def test_search_terminates_on_cycle(self):
        data = np.random.default_rng(0).standard_normal((6, 3)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        adjacency = AdjacencyStore(6)
        for u in range(6):
            adjacency.add_base_edge(u, (u + 1) % 6)
        result = greedy_search(dc, adjacency.neighbors, [0],
                               data[3], k=2, ef=4)
        assert len(result.ids) == 2

    def test_ngfix_on_totally_disconnected_graph(self):
        data = np.random.default_rng(1).standard_normal((30, 4)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        adjacency = AdjacencyStore(30)  # zero edges anywhere
        gt = compute_ground_truth(data, data[:1], 15, Metric.L2)
        eh = escape_hardness(adjacency.neighbors, gt.ids[0], 5)
        assert eh.n_unreachable_pairs() == 20
        outcome = ngfix_query(adjacency, dc, eh, max_extra_degree=10)
        assert outcome.fully_reachable

    def test_all_neighbors_tombstoned_still_returns(self):
        data = np.random.default_rng(2).standard_normal((5, 3)).astype(np.float32)
        dc = DistanceComputer(data, Metric.L2)
        adjacency = AdjacencyStore(5)
        for v in range(1, 5):
            adjacency.add_base_edge(0, v)
        result = greedy_search(dc, adjacency.neighbors, [0], data[2], k=2,
                               ef=4, excluded={1, 2, 3, 4})
        assert result.ids.tolist() == [0]


class TestFixerEdgeCases:
    def test_fit_single_query(self, tiny_ds, fresh_hnsw):
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:1])
        assert len(fixer.records) == 1

    def test_fit_twice_idempotent_reachability(self, tiny_ds, fresh_hnsw):
        """A second fit over the same history adds (almost) nothing: the
        defects are already fixed."""
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.train_queries[:30])
        first = fixer.adjacency.n_extra_edges()
        fixer.fit(tiny_ds.train_queries[:30])
        second = fixer.adjacency.n_extra_edges()
        assert second <= first + 0.1 * first + 2

    def test_k_larger_than_history_gt(self, tiny_ds, fresh_hnsw):
        """K_max past the corpus size is capped at it: the fit measures EH
        over every row instead of raising."""
        config = FixConfig(k=200, hard_ratio=3.0, preprocess="exact")
        fixer = NGFixer(fresh_hnsw, config)
        fixer.fit(tiny_ds.train_queries[:2])
        assert [r.round_k for r in fixer.records] == [200, 200]

    def test_queries_equal_to_base_points(self, tiny_ds, fresh_hnsw):
        """ID queries that coincide with base points fix trivially."""
        fixer = NGFixer(fresh_hnsw, FixConfig(k=8, preprocess="exact"))
        fixer.fit(tiny_ds.base[:10])
        assert all(r.hardness >= 0 for r in fixer.records)


# -- chaos: crash-safe durability under churn ---------------------------------
#
# End-to-end proof of the durability contract: a store killed mid-churn
# recovers with every *acknowledged* insert/delete present, tombstoned ids
# never surface in results, and recovered recall matches an uninterrupted
# control run within noise.  (Primitive-level durability tests live in
# test_durability.py.)

import subprocess
import sys

from repro import VectorStore
from repro.durability import recover
from repro.faults import FAULTS, KILL_EXIT_CODE, FaultInjected, FaultPlan

_DIM = 8


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


def _base_vectors(seed=0, n=120):
    return np.random.default_rng(seed).standard_normal(
        (n, _DIM)).astype(np.float32)


def _durable_store(wal_dir, **kwargs):
    store = VectorStore(dim=_DIM, seed=0, scheduler_mode="inline",
                        wal_dir=wal_dir, sync_every=4, **kwargs)
    store.add(_base_vectors())
    store.build()
    return store


def _op_stream(seed, rounds):
    """The deterministic churn schedule both chaos and control replay.

    Round r inserts 3 vectors; odd rounds delete one earlier id (chosen by
    round number, so the schedule is a pure function of the seed).
    """
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((3, _DIM)).astype(np.float32)
            for _ in range(rounds)]


def _apply_rounds(store, batches, start, stop, acked):
    for r in range(start, stop):
        ids = store.add(batches[r],
                        payloads=[{"round": r, "j": j} for j in range(3)])
        acked["inserted"].extend(ids)
        if r % 2 == 1:
            victim = 120 + 3 * (r // 2)  # an id inserted in an earlier round
            if victim not in acked["deleted"]:
                store.delete([victim])
                acked["deleted"].append(victim)


class TestCrashRecoveryMidChurn:
    def test_acked_ops_survive_crash(self, tmp_path):
        """Simulated crash: the store object is abandoned un-closed."""
        wal_dir = tmp_path / "wal"
        store = _durable_store(wal_dir)
        store.checkpoint()
        acked = {"inserted": [], "deleted": []}
        _apply_rounds(store, _op_stream(1, 12), 0, 12, acked)
        del store  # crash: no close(), no final fsync

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert recovered._fixer.dc.size == 120 + len(acked["inserted"])
        tombstones = recovered._fixer.index.adjacency.tombstones
        for i in acked["deleted"]:
            assert i in tombstones
        live = [i for i in acked["inserted"] if i not in acked["deleted"]]
        for i in live:
            assert recovered.get_payload(i) is not None
        # Tombstoned ids never surface in results.
        for q in _base_vectors(seed=2, n=10):
            hits = {i for i, _, _ in recovered.search(q, k=10)}
            assert not hits & set(acked["deleted"])
        # Acked live vectors are findable by their own vector.
        found = sum(
            i in {j for j, _, _ in recovered.search(
                recovered._fixer.dc.data[i], k=5)}
            for i in live)
        assert found >= 0.9 * len(live)
        recovered.close()

    def test_recovered_recall_matches_control(self, tmp_path):
        """Crash + recover + finish the churn == never crashing, recall-wise."""
        batches, crash_at, rounds = _op_stream(3, 12), 6, 12

        control = _durable_store(tmp_path / "control-wal")
        acked_c = {"inserted": [], "deleted": []}
        _apply_rounds(control, batches, 0, rounds, acked_c)

        chaos = _durable_store(tmp_path / "chaos-wal")
        acked_x = {"inserted": [], "deleted": []}
        _apply_rounds(chaos, batches, 0, crash_at, acked_x)
        del chaos  # crash between rounds
        recovered, report = recover(tmp_path / "chaos-wal")
        assert report.consistent, report.errors
        _apply_rounds(recovered, batches, crash_at, rounds, acked_x)

        # Identical op schedules -> identical final corpora.
        assert acked_c == acked_x
        assert recovered._fixer.dc.size == control._fixer.dc.size
        np.testing.assert_array_equal(
            recovered._fixer.dc.data, control._fixer.dc.data)

        # Recall within noise of the uninterrupted run (graph structure may
        # differ: replayed inserts rebuild edges through ReplayableIndex).
        queries = _base_vectors(seed=4, n=20)
        deleted = set(acked_c["deleted"])

        def recall(store):
            data = store._fixer.dc.data
            live = np.array([i for i in range(data.shape[0])
                             if i not in deleted])
            hits = 0
            for q in queries:
                gt = live[np.argsort(
                    np.linalg.norm(data[live] - q, axis=1))[:10]]
                got = {i for i, _, _ in store.search(q, k=10, ef=40)}
                hits += len(got & set(gt.tolist()))
            return hits / (10 * len(queries))

        r_control, r_chaos = recall(control), recall(recovered)
        assert r_chaos >= r_control - 0.05, (r_chaos, r_control)
        control.close()
        recovered.close()


class TestFaultInjectionMidFlight:
    def test_merge_fault_leaves_store_serving(self, tmp_path):
        store = _durable_store(tmp_path / "wal")
        plan = FaultPlan().on("scheduler.pre_merge", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                store.scheduler.merge_now()
        # The failed merge neither wedged serving nor corrupted the log.
        assert len(store.search(_base_vectors(seed=1, n=1)[0], k=5)) == 5
        epoch = store.scheduler.merge_now()  # disarmed: merge succeeds
        assert epoch.epoch_id >= 1
        store.close()
        recovered, report = recover(tmp_path / "wal")
        assert report.consistent, report.errors
        recovered.close()

    def test_checkpoint_crash_recovers_from_previous(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _durable_store(wal_dir)
        first = store.checkpoint()
        acked = {"inserted": [], "deleted": []}
        _apply_rounds(store, _op_stream(5, 4), 0, 4, acked)
        plan = FaultPlan().on("snapshot.pre_manifest", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                store.checkpoint()
        del store  # crash right after the failed checkpoint

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.snapshot_id == first.snapshot_id  # fell back cleanly
        assert recovered._fixer.dc.size == 120 + len(acked["inserted"])
        for i in acked["deleted"]:
            assert i in recovered._fixer.index.adjacency.tombstones
        recovered.close()


_KILL_CHILD = """
import sys
import numpy as np
from repro.store import VectorStore
from repro.faults import FAULTS, FaultPlan

wal_dir = sys.argv[1]
rng = np.random.default_rng(0)
store = VectorStore(dim=8, seed=0, scheduler_mode="inline",
                    wal_dir=wal_dir, sync_every=2)
store.add(rng.standard_normal((100, 8)).astype(np.float32))
store.build()
store.checkpoint()
# The 8th fsync kills the process dead (os._exit: no cleanup, no atexit).
FAULTS.arm(FaultPlan().on("wal.pre_fsync", "kill", nth=8))
for r in range(1000):
    ids = store.add(rng.standard_normal((2, 8)).astype(np.float32))
    print("ACK insert", *ids, flush=True)
    if r % 3 == 2:
        store.delete([ids[0]])
        print("ACK delete", ids[0], flush=True)
print("SURVIVED", flush=True)  # must be unreachable
"""


_REPAIR_KILL_CHILD = """
import sys
import numpy as np
from repro.store import VectorStore
from repro.faults import FAULTS, FaultPlan

wal_dir = sys.argv[1]
rng = np.random.default_rng(0)
store = VectorStore(dim=8, seed=0, scheduler_mode="inline",
                    wal_dir=wal_dir, sync_every=1)
store.add(rng.standard_normal((100, 8)).astype(np.float32))
store.build()
store.checkpoint()
queries = rng.standard_normal((8, 8)).astype(np.float32)
for q in queries[:4]:
    store.observe(q)   # committed + journaled: replay re-runs these
print("ACK observed 4", flush=True)
store.delete([3, 4, 5])
print("ACK delete 3 4 5", flush=True)
# The next repair dies AFTER being popped but BEFORE committing (and
# therefore before its journal append: repairs are logged post-commit).
FAULTS.arm(FaultPlan().on("scheduler.pre_repair", "kill", nth=1))
store.observe(queries[4])
print("SURVIVED", flush=True)  # must be unreachable
"""


class TestProcessKill:
    def test_kill_mid_repair_is_replay_invisible(self, tmp_path):
        """A crash inside the repair drain loses only the in-flight repair.

        The journal-after-commit ordering means the killed repair never
        reached the WAL: recovery replays the four acknowledged repairs
        and the delete, and the tombstoned ids never resurface.
        """
        from repro.durability.wal import read_wal

        wal_dir = tmp_path / "wal"
        proc = subprocess.run(
            [sys.executable, "-c", _REPAIR_KILL_CHILD, str(wal_dir)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        assert "SURVIVED" not in proc.stdout
        assert "ACK delete 3 4 5" in proc.stdout

        records = list(read_wal(wal_dir))
        ops = [r.op for r in records]
        # Exactly the four acked repairs made the journal — the one the
        # kill interrupted is absent, so replay simply skips it.
        assert ops.count("observe") == 4
        assert ops.count("delete") == 1

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        tombstones = recovered._fixer.index.adjacency.tombstones
        assert {3, 4, 5} <= set(tombstones)
        for q in np.random.default_rng(7).standard_normal(
                (10, _DIM)).astype(np.float32):
            hits = {i for i, _, _ in recovered.search(q, k=10)}
            assert not hits & {3, 4, 5}
        # The recovered store keeps serving and repairing normally.
        assert recovered.observe(
            np.zeros(_DIM, dtype=np.float32)) is True
        recovered.close()

    def test_killed_process_recovers_all_acked_ops(self, tmp_path):
        """Real process death (os._exit mid-churn), not just an exception."""
        wal_dir = tmp_path / "wal"
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, str(wal_dir)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        assert "SURVIVED" not in proc.stdout

        inserted, deleted = [], []
        for line in proc.stdout.splitlines():
            parts = line.split()
            if parts[:2] == ["ACK", "insert"]:
                inserted.extend(int(p) for p in parts[2:])
            elif parts[:2] == ["ACK", "delete"]:
                deleted.append(int(parts[2]))
        assert inserted  # the child made progress before dying

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        # The contract is one-sided: every ACKed op must be present; the
        # in-flight batch the kill interrupted (journaled but never ACKed)
        # MAY also survive.  sync_every=2 bounds that window to one batch.
        assert (100 + len(inserted)
                <= recovered._fixer.dc.size
                <= 100 + len(inserted) + 2)
        tombstones = recovered._fixer.index.adjacency.tombstones
        for i in deleted:
            assert i in tombstones
        for q in np.random.default_rng(9).standard_normal(
                (10, 8)).astype(np.float32):
            hits = {i for i, _, _ in recovered.search(q, k=10)}
            assert not hits & set(deleted)
        recovered.close()
