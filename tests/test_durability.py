"""Crash-safe durability: WAL framing, snapshots, recovery, degradation.

The chaos suite (kill-mid-churn, subprocess death) lives in
``test_robustness.py``; this file covers the durability primitives and the
serving layer's graceful-degradation paths in isolation.
"""

import dataclasses
import json
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CONFIG_NAME, StoreConfig
from repro.core.fixer import FixConfig
from repro.durability import (
    RecoveryError,
    SnapshotManager,
    WriteAheadLog,
    read_wal,
    recover,
)
from repro.durability.wal import _HEADER
from repro.faults import FAULTS, FaultInjected, FaultPlan
from repro.quantization.pq import ProductQuantizer
from repro.store import VectorStore
from tests.conftest import (NONDEFAULT_STORE_SETTINGS, OLD_TUNED_TABLE,
                            store_settings_with)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leak an armed fault plan into the next."""
    yield
    FAULTS.disarm()


def _vectors(n, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(
        np.float32)


def _make_store(wal_dir, n=50, dim=8, seed=0, **kwargs):
    kwargs.setdefault("scheduler_mode", "inline")
    store = VectorStore(dim=dim, seed=seed, wal_dir=wal_dir, **kwargs)
    store.add(_vectors(n, dim, seed))
    store.build()
    return store


class TestWalFraming:
    def test_roundtrip_all_ops(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        vectors = _vectors(3, 4)
        wal.log_insert(10, vectors, payloads=[{"a": 1}, None, {"b": 2}])
        wal.log_build()
        wal.log_delete([7, 9])
        wal.log_observe(np.ones(4, dtype=np.float32))
        wal.log_merge_cut()
        wal.close()

        records = list(read_wal(tmp_path))
        assert [r.op for r in records] == [
            "insert", "build", "delete", "observe", "merge_cut"]
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        ins = records[0]
        assert ins.first_id == 10
        np.testing.assert_array_equal(ins.vectors, vectors)
        assert ins.payloads == [{"a": 1}, None, {"b": 2}]
        np.testing.assert_array_equal(records[2].ids, [7, 9])
        np.testing.assert_array_equal(
            records[3].query, np.ones(4, dtype=np.float32))

    def test_after_seq_filter(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for _ in range(5):
            wal.log_merge_cut()
        wal.close()
        assert [r.seq for r in read_wal(tmp_path, after_seq=3)] == [4, 5]

    def test_reopen_recovers_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_delete([1])
        wal.log_delete([2])
        wal.close()
        wal2 = WriteAheadLog(tmp_path)
        assert wal2.seq == 2
        assert wal2.log_delete([3]) == 3
        wal2.close()
        assert [r.seq for r in read_wal(tmp_path)] == [1, 2, 3]


class TestWalConcurrency:
    def test_concurrent_appends_stay_gap_free(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=4)
        per_thread = 200

        def hammer():
            for _ in range(per_thread):
                wal.log_merge_cut()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wal.close()
        # Every appended record must carry a unique, contiguous seq and
        # the frames must land in seq order (recovery replays in file
        # order and flags any gap).
        seqs = [r.seq for r in read_wal(tmp_path)]
        assert seqs == list(range(1, 4 * per_thread + 1))

    def test_failed_append_does_not_burn_a_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        wal.log_delete([1])
        plan = FaultPlan().on("wal.pre_append", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                wal.log_delete([2])
        assert wal.seq == 1  # the failed append rolled nothing forward
        wal.log_delete([3])
        wal.close()
        assert [r.seq for r in read_wal(tmp_path)] == [1, 2]


class TestTornTail:
    def _write_then_tear(self, tmp_path, chop):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for i in range(4):
            wal.log_delete([i])
        wal.close()
        (path,) = sorted(tmp_path.glob("wal-*.log"))
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size - chop)
        return path

    def test_half_written_frame_truncated_on_open(self, tmp_path):
        self._write_then_tear(tmp_path, chop=3)  # mid-frame crash
        wal = WriteAheadLog(tmp_path)
        assert wal.seq == 3
        assert wal.truncated_bytes > 0
        # The log stays appendable and the new record follows the good tail.
        wal.log_delete([99])
        wal.close()
        assert [r.seq for r in read_wal(tmp_path)] == [1, 2, 3, 4]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for i in range(3):
            wal.log_delete([i])
        wal.close()
        (path,) = sorted(tmp_path.glob("wal-*.log"))
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *second* record's body.
        frame0 = _HEADER.size + struct.unpack_from("<I", data, 0)[0]
        data[frame0 + _HEADER.size + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # read_wal is read-only: stops at the corruption, file unchanged.
        assert [r.seq for r in read_wal(tmp_path)] == [1]
        assert path.stat().st_size == len(data)
        # The append path truncates records 2 and 3 away.
        wal = WriteAheadLog(tmp_path)
        assert wal.seq == 1
        wal.close()

    def test_read_wal_does_not_modify(self, tmp_path):
        path = self._write_then_tear(tmp_path, chop=2)
        before = path.stat().st_size
        assert [r.seq for r in read_wal(tmp_path)] == [1, 2, 3]
        assert path.stat().st_size == before


class TestFsyncPolicy:
    def test_sync_every_batches(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=3)
        for _ in range(7):
            wal.log_merge_cut()
        assert wal.n_fsyncs == 2  # records 3 and 6
        wal.close()  # seals with one final sync
        assert wal.n_fsyncs == 3

    def test_sync_every_1_syncs_each_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=1)
        for _ in range(4):
            wal.log_merge_cut()
        assert wal.n_fsyncs == 4
        wal.close()

    def test_sync_every_0_never_syncs_on_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for _ in range(10):
            wal.log_merge_cut()
        assert wal.n_fsyncs == 0
        wal.close()


class TestRotationAndPrune:
    def test_rotate_opens_new_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_delete([1])
        wal.rotate()
        wal.log_delete([2])
        wal.close()
        assert len(list(tmp_path.glob("wal-*.log"))) == 2
        assert [r.seq for r in read_wal(tmp_path)] == [1, 2]

    def test_prune_removes_covered_segments_only(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.log_delete([1])
        wal.log_delete([2])
        wal.rotate()  # seg 2 starts at seq 3
        wal.log_delete([3])
        wal.rotate()  # seg 3 starts at seq 4
        wal.log_delete([4])
        assert wal.prune(upto_seq=2) == 1  # only the first segment covered
        assert [r.seq for r in read_wal(tmp_path)] == [3, 4]
        assert wal.prune(upto_seq=4) == 1  # active segment never pruned
        wal.close()
        assert [r.seq for r in read_wal(tmp_path)] == [4]


class TestSnapshots:
    def test_latest_and_manifest_commit_point(self, tmp_path):
        store = _make_store(tmp_path / "wal", n=30)
        mgr = store._snapshots
        info = store.checkpoint()
        assert mgr.latest().snapshot_id == info.snapshot_id
        # Deleting the manifest un-commits the snapshot.
        info.manifest_path.unlink()
        assert mgr.latest() is None
        store.close()

    def test_crash_before_replace_preserves_previous(self, tmp_path):
        store = _make_store(tmp_path / "wal", n=30)
        first = store.checkpoint()
        store.add(_vectors(5, seed=1))
        plan = FaultPlan().on("snapshot.pre_replace", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                store.checkpoint()
        latest = store._snapshots.latest()
        assert latest.snapshot_id == first.snapshot_id
        # No *.tmp debris left behind by the aborted writer.
        assert not list((tmp_path / "wal").glob("*.tmp"))
        store.close()

    def test_crash_before_manifest_leaves_orphan_pruned(self, tmp_path):
        store = _make_store(tmp_path / "wal", n=30)
        first = store.checkpoint()
        plan = FaultPlan().on("snapshot.pre_manifest", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                store.checkpoint()
        mgr = store._snapshots
        assert mgr.latest().snapshot_id == first.snapshot_id
        orphan = mgr._base(first.snapshot_id + 1).with_suffix(".npz")
        assert orphan.exists()  # data landed but never committed
        mgr.prune(keep=1)
        assert not orphan.exists()
        assert mgr.latest().snapshot_id == first.snapshot_id
        store.close()

    def test_checkpoint_truncates_wal(self, tmp_path):
        store = _make_store(tmp_path / "wal", n=30)
        store.delete([0, 1])
        info = store.checkpoint()
        # All records up to the checkpoint are pruned away.
        assert list(read_wal(tmp_path / "wal", after_seq=info.wal_seq)) == []
        store.delete([2])
        tail = list(read_wal(tmp_path / "wal", after_seq=info.wal_seq))
        assert [r.op for r in tail] == ["delete"]
        store.close()


class TestRecovery:
    def test_wal_only_replay(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=40, seed=3)
        ids = store.add(_vectors(6, seed=4), payloads=[{"i": i}
                                                      for i in range(6)])
        store.delete([0, 1])
        store.close()

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.snapshot_id is None
        assert recovered._fixer.dc.size == 46
        assert recovered._fixer.index.adjacency.tombstones == {0, 1}
        for off, i in enumerate(ids):
            assert recovered.get_payload(i) == {"i": off}
        recovered.close()

    def test_snapshot_plus_tail_replay(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=40, seed=5)
        store.checkpoint()
        store.add(_vectors(4, seed=6))
        store.delete([2])
        store.close()

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.snapshot_id == 1
        assert report.replayed["rows_inserted"] == 4
        assert recovered._fixer.dc.size == 44
        assert 2 in recovered._fixer.index.adjacency.tombstones
        recovered.close()

    def test_recovered_store_serves_and_accepts_writes(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=40, seed=7)
        store.checkpoint()
        store.close()

        recovered, report = recover(wal_dir)
        assert report.consistent
        query = _vectors(1, seed=8)[0]
        assert len(recovered.search(query, k=5)) == 5
        new_ids = recovered.add(_vectors(3, seed=9))  # NOT frozen
        assert len(new_ids) == 3
        assert recovered.observe(query)
        recovered.checkpoint()  # the adopted WAL keeps checkpointing
        recovered.close()

        # And the recovered store's own history recovers again.
        again, report2 = recover(wal_dir)
        assert report2.consistent, report2.errors
        assert again._fixer.dc.size == 43
        again.close()

    @pytest.mark.parametrize("rewrite", [
        lambda config: config.update(serving=False),
        lambda config: config.pop("beam_width"),
        lambda config: config.update(tuned_config=OLD_TUNED_TABLE),
        lambda config: config.update(policy="signal",
                                     policy_config={"min_traces": 4}),
    ], ids=["serving-false", "no-beam-width", "tuned-table", "signal-policy"])
    def test_old_store_config_still_recovers(self, tmp_path, rewrite):
        """Configs from before this format — carrying the dropped
        ``serving`` key, a fitted planner table or a maintenance policy, or
        written before ``beam_width`` was persisted — recover into a
        serving, consistent store on the file's merge cadence whose
        ``ef``-less search is the one default, ``ef=max(k, 10)``."""
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=40, seed=7, merge_every=17)
        store.checkpoint()
        store.add(_vectors(3, seed=8))
        store.close()
        config_path = wal_dir / "store-config.json"
        config = json.loads(config_path.read_text())
        rewrite(config)
        config_path.write_text(json.dumps(config))

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert recovered.epochs is not None and recovered.scheduler is not None
        assert recovered.scheduler.merge_every == 17
        query = _vectors(1, seed=9)[0]
        assert len(recovered.search(query, k=5, deadline_ms=10_000.0)) == 5
        assert recovered.search(query, k=5) == recovered.search(query, k=5,
                                                                ef=10)
        recovered.close()

    def test_config_without_fix_config_recovers_default(self, tmp_path):
        """A file written before ``fix_config`` was persisted recovers with
        today's default NGFix* settings."""
        wal_dir = tmp_path / "wal"
        _make_store(wal_dir, n=40, seed=7).close()
        config_path = wal_dir / CONFIG_NAME
        config = json.loads(config_path.read_text())
        del config["fix_config"]
        config_path.write_text(json.dumps(config))
        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert recovered.fix_config == FixConfig(preprocess="approx")
        recovered.close()

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "nothing-here")

    def test_torn_tail_reported(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=30, seed=10)
        store.delete([0])
        store.close()
        (path,) = sorted(wal_dir.glob("wal-*.log"))
        with open(path, "ab") as f:
            f.write(b"\x07torn")  # crash mid-append
        recovered, report = recover(wal_dir)
        assert report.consistent
        assert report.truncated_bytes == 5
        recovered.close()

    def test_fresh_store_refuses_existing_history(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=20, seed=11)
        store.close()
        with pytest.raises(RuntimeError, match="recover"):
            VectorStore(dim=8, wal_dir=wal_dir)

    def test_build_marker_splits_bulk_and_incremental(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=30, seed=12)
        store.add(_vectors(5, seed=13))  # post-build: incremental inserts
        store.close()

        ops = [r.op for r in read_wal(wal_dir)]
        assert ops[:3] == ["insert", "build", "insert"]

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.replayed["build"] == 1
        assert report.replayed["rows_inserted"] == 35
        assert recovered._fixer.dc.size == 35
        recovered.close()

    def test_mutation_journaled_before_triggered_merge(self, tmp_path):
        wal_dir = tmp_path / "wal"
        # 50 points, compact_threshold 0.05 -> deleting 3 compacts, and the
        # compaction's epoch merge must be journaled AFTER the delete.
        store = _make_store(wal_dir, n=50, seed=14)
        store.delete([0, 1, 2])
        store.close()

        ops = [r.op for r in read_wal(wal_dir)]
        assert "merge_cut" in ops  # compaction merged
        assert ops.index("delete") < ops.index("merge_cut")

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        recovered.close()


@st.composite
def _store_configs(draw):
    """Arbitrary valid configs (nested ``fix_config`` included)."""
    small = st.integers(1, 64)
    optional = st.one_of(st.none(), small)
    return StoreConfig(
        dim=draw(small), metric=draw(st.sampled_from(["l2", "ip", "cosine"])),
        M=draw(small), ef_construction=draw(small),
        seed=draw(st.integers(0, 2**31)),
        scheduler_mode=draw(st.sampled_from(["inline", "thread"])),
        merge_every=draw(small), sync_every=draw(st.integers(0, 64)),
        checkpoint_every=draw(st.integers(0, 64)),
        compressed=draw(st.booleans()), pq_m=draw(optional),
        pq_ks=draw(small), rerank=draw(small), beam_width=draw(optional),
        fix_config=draw(st.one_of(st.none(), st.builds(
            FixConfig, k=small, max_extra_degree=small,
            hard_ratio=st.floats(1.0, 4.0),
            eh_threshold=st.one_of(st.none(), st.floats(1.0, 64.0)),
            preprocess=st.sampled_from(["exact", "approx"]),
            rounds=st.one_of(st.none(), st.lists(small, min_size=1,
                                                 max_size=3)),
            rfix=st.booleans()))))


_NONDEFAULT = StoreConfig(**NONDEFAULT_STORE_SETTINGS)


class TestStoreConfig:
    """One declaration of the store's settings, carried by one codec."""

    @settings(max_examples=60, deadline=None)
    @given(config=_store_configs())
    def test_json_round_trip(self, config):
        assert StoreConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))) == config

    def test_table_covers_every_field(self):
        fields = [f.name for f in dataclasses.fields(StoreConfig)]
        assert set(NONDEFAULT_STORE_SETTINGS) == set(fields)
        defaults = StoreConfig(dim=8)
        for name in fields:
            assert getattr(_NONDEFAULT, name) != getattr(defaults, name), name

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(StoreConfig)])
    def test_every_field_survives_recovery(self, tmp_path, field):
        """Whatever the constructor was told, ``recover()`` tells the next
        one: no field is dropped by the file or by the shell rebuild."""
        store = _make_store(tmp_path / "wal", **store_settings_with(field))
        store.close()
        recovered, report = recover(tmp_path / "wal")
        try:
            assert report.consistent, report.errors
            assert recovered.config == store.config
            assert (getattr(recovered.config, field)
                    == getattr(_NONDEFAULT, field))
        finally:
            recovered.close()

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(StoreConfig)])
    def test_every_field_survives_load(self, tmp_path, field):
        """``load`` takes every setting the file does not fix; ``dim`` and
        ``metric`` come from the file."""
        settings = store_settings_with(field)
        geometry = {name: settings.pop(name)
                    for name in ("dim", "metric") if name in settings}
        saved = VectorStore(**geometry, M=8, ef_construction=40)
        saved.add(_vectors(60, geometry["dim"]))
        path = saved.build().save(tmp_path / "store")
        loaded = VectorStore.load(path, **settings)
        try:
            assert loaded.config == StoreConfig(**store_settings_with(field))
        finally:
            loaded.close()

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(StoreConfig)
        if f.name not in ("dim", "metric")])
    def test_every_field_is_a_recover_override(self, tmp_path, field):
        store = _make_store(tmp_path / "wal", n=40)
        store.close()
        value = NONDEFAULT_STORE_SETTINGS[field]
        recovered, report = recover(tmp_path / "wal", **{field: value})
        try:
            assert report.consistent, report.errors
            assert recovered.config == dataclasses.replace(
                store.config, **{field: value})
        finally:
            recovered.close()

    @pytest.mark.parametrize("bad", [{"dim": 12}, {"metric": "l2"},
                                     {"serving": False}],
                             ids=lambda bad: next(iter(bad)))
    def test_recover_rejects_fixed_and_unknown_overrides(self, tmp_path,
                                                         bad):
        _make_store(tmp_path / "wal", n=40).close()
        with pytest.raises(TypeError):
            recover(tmp_path / "wal", **bad)

    def test_unknown_keys_ignored_missing_keys_defaulted(self):
        config = StoreConfig.from_dict({"dim": 8, "serving": False,
                                        "shard_id": 3})
        assert config == StoreConfig(dim=8)

    def test_retired_fix_config_n_workers_is_dropped(self):
        """Earlier versions wrote ``fix_config.n_workers`` (the width of a
        since-removed offline process pool) into files and worker specs."""
        old = {**dataclasses.asdict(StoreConfig(dim=8).fix_config),
               "n_workers": 4}
        config = StoreConfig.from_dict({"dim": 8, "fix_config": old})
        assert config == StoreConfig(dim=8)

    @pytest.mark.parametrize("bad", [
        {"dim": 0}, {"beam_width": 0}, {"pq_m": 0}, {"sync_every": -1},
        {"scheduler_mode": "fiber"}, {"metric": "manhattan"},
        {"fix_config": {"k": 0}},
    ], ids=lambda bad: next(iter(bad)))
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(ValueError):
            StoreConfig(**{"dim": 8, **bad})

    def test_recovered_store_checkpoints_on_cadence_again(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _make_store(wal_dir, n=40, checkpoint_every=5).close()
        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        before = recovered.stats()["last_checkpoint_seq"]
        for row in _vectors(20, seed=3):
            recovered.add(row[None, :])
        assert recovered.stats()["last_checkpoint_seq"] >= before + 15
        assert SnapshotManager(wal_dir).latest() is not None
        recovered.close()

    def test_recovered_store_repairs_with_original_ngfix_settings(
            self, tmp_path):
        fix = FixConfig(preprocess="approx", max_extra_degree=3, k=5)
        store = _make_store(tmp_path / "wal", n=40, fix_config=fix)
        store.observe(_vectors(1, seed=2)[0])
        store.close()
        recovered, report = recover(tmp_path / "wal")
        assert report.consistent and report.replayed["observe"] == 1
        assert recovered.fix_config == fix
        assert recovered._fixer.config == fix
        recovered.close()

    def test_apply_pq_persists_the_compressed_tier(self, tmp_path):
        """A store switched to the compressed tier at runtime recovers
        compressed, with the shipped quantizer's geometry."""
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=60)
        pq = ProductQuantizer(m=2, ks=16, metric=store.metric, seed=0)
        pq.fit(store.dc.data)
        store.apply_pq(pq)
        store.close()
        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert recovered.config == store.config
        assert recovered.adc is not None
        assert (recovered.adc.pq.m, recovered.adc.pq.ks) == (2, 16)
        recovered.close()

    def test_recover_override_replaces_one_field(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = _make_store(wal_dir, n=40, merge_every=17, rerank=20)
        store.close()
        recovered, _ = recover(wal_dir, merge_every=5)
        assert recovered.config == dataclasses.replace(store.config,
                                                       merge_every=5)
        recovered.close()


class TestDurableThreadMode:
    """WAL + scheduler_mode='thread': the background worker journals
    observe/merge-cut records while the foreground thread journals
    inserts/deletes — the log must stay gap-free and replayable."""

    def test_concurrent_churn_recovers(self, tmp_path):
        wal_dir = tmp_path / "wal"
        store = VectorStore(dim=8, seed=0, wal_dir=wal_dir,
                            scheduler_mode="thread", merge_every=16,
                            sync_every=0)
        store.add(_vectors(80, seed=0))
        store.build()
        deleted = []
        for i in range(25):
            ids = store.add(_vectors(2, seed=100 + i))
            store.observe(_vectors(1, seed=200 + i)[0])  # worker journals
            store.delete([ids[0]])
            deleted.append(ids[0])
        assert store.flush(timeout=30.0)
        store.close()

        seqs = [r.seq for r in read_wal(wal_dir)]
        assert seqs == list(range(1, len(seqs) + 1))  # no gaps/dups/reorder

        recovered, report = recover(wal_dir)
        assert report.consistent, report.errors
        assert report.n_vectors == 80 + 50
        # Tombstoned/compacted ids never surface in results.
        for q in _vectors(5, seed=300):
            hit_ids = {i for i, _, _ in recovered.search(q, k=10)}
            assert not hit_ids & set(deleted)
        recovered.close()


class TestGracefulDegradation:
    @pytest.fixture()
    def served(self, tmp_path):
        store = VectorStore(dim=8, seed=0, scheduler_mode="inline")
        store.add(_vectors(300, seed=0))
        store.build()
        yield store
        store.close()

    def test_deadline_returns_degraded_best_effort(self, served):
        query = _vectors(1, seed=1)[0]
        full = served.searcher.search(query, k=5, ef=64)
        expired = served.searcher.search(query, k=5, ef=64,
                                         deadline_ms=-1.0)
        assert expired.degraded
        assert not full.degraded
        assert served.searcher.n_degraded == 1
        # Best-so-far: still returns the entry-seeded candidates.
        assert len(expired.ids) >= 1

    def test_deadline_batch_flags_all_unfinished(self, served):
        queries = _vectors(6, seed=2)
        results = served.searcher.search_batch(queries, k=5, ef=64,
                                               deadline_ms=-1.0)
        assert len(results) == 6
        assert all(r.degraded for r in results)
        ok = served.searcher.search_batch(queries, k=5, ef=64)
        assert not any(r.degraded for r in ok)

    def test_generous_deadline_not_degraded(self, served):
        result = served.searcher.search(_vectors(1, seed=3)[0], k=5,
                                        ef=32, deadline_ms=10_000.0)
        assert not result.degraded

    def test_store_search_deadline_passthrough(self, served):
        hits = served.search(_vectors(1, seed=4)[0], k=5,
                             deadline_ms=10_000.0)
        assert len(hits) == 5
        with pytest.raises(ValueError, match="where"):
            served.search(_vectors(1, seed=4)[0], k=5,
                          deadline_ms=1.0, where=lambda p: True)


class TestAdmissionControl:
    def test_shed_when_queue_saturated(self):
        store = VectorStore(dim=8, seed=0, scheduler_mode="inline")
        store.add(_vectors(60))
        store.build()
        sched = store.scheduler
        sched.queue_limit = 2
        # Stuff the queue directly (inline observe would drain it).
        sched._queue.extend(_vectors(2, seed=1))
        assert not store.observe(_vectors(1, seed=2)[0])
        assert sched.n_shed == 1
        sched._queue.clear()
        assert store.observe(_vectors(1, seed=3)[0])
        assert sched.stats()["shed"] == 1
        store.close()

    def test_shed_when_worker_dead(self):
        store = VectorStore(dim=8, seed=0, scheduler_mode="thread")
        store.add(_vectors(60))
        store.build()
        assert store.scheduler.stop()
        # Worker gone: repair feedback is refused, searches still served.
        assert not store.observe(_vectors(1, seed=1)[0])
        assert store.scheduler.n_shed == 1
        assert len(store.search(_vectors(1, seed=2)[0], k=5)) == 5
        store.close()

    def test_searches_never_shed(self):
        store = VectorStore(dim=8, seed=0, scheduler_mode="inline")
        store.add(_vectors(60))
        store.build()
        store.scheduler.queue_limit = 0  # shed every observe
        assert not store.observe(_vectors(1, seed=1)[0])
        for q in _vectors(5, seed=2):
            assert len(store.search(q, k=5)) == 5
        store.close()


class TestSchedulerLifecycle:
    def test_stop_keeps_handle_on_failed_join(self):
        store = VectorStore(dim=8, seed=0, scheduler_mode="thread")
        store.add(_vectors(80))
        store.build()
        sched = store.scheduler
        plan = FaultPlan().on("worker.drain", "delay", delay_s=0.5)
        with FAULTS.injected(plan):
            sched.observe(_vectors(1, seed=1)[0])
            deadline = time.monotonic() + 5.0
            while (plan.stats()["worker.drain"]["fired"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.005)  # wait until the worker is in the delay
            assert not sched.stop(timeout=0.05)  # worker stuck in the delay
            assert sched._thread is not None  # handle kept, not leaked
            assert sched.n_failed_joins == 1
        assert sched.stop(timeout=5.0)  # retry joins for real
        assert sched._thread is None
        assert not sched.worker_alive()
        store.close()

    def test_flush_timeout_propagates(self):
        store = VectorStore(dim=8, seed=0, scheduler_mode="thread")
        store.add(_vectors(80))
        store.build()
        sched = store.scheduler
        plan = FaultPlan().on("worker.drain", "delay", delay_s=0.5,
                              every=True)
        with FAULTS.injected(plan):
            sched.observe(_vectors(1, seed=1)[0])
            assert store.flush(timeout=0.05) is False
            assert sched.n_flush_timeouts == 1
        assert store.flush(timeout=10.0) is True
        store.close()

    def test_frozen_load_add_raises_clear_error(self, tmp_path):
        store = VectorStore(dim=8, seed=0)
        store.add(_vectors(30))
        store.build()
        path = store.save(tmp_path / "index.npz")
        loaded = VectorStore.load(path)
        with pytest.raises(RuntimeError, match="recover"):
            loaded.add(_vectors(1))
        # Everything else still works on the frozen store.
        assert len(loaded.search(_vectors(1, seed=1)[0], k=5)) == 5
        loaded.delete([0])
        loaded.close()

    def test_save_is_atomic(self, tmp_path):
        store = VectorStore(dim=8, seed=0)
        store.add(_vectors(30))
        store.build()
        path = store.save(tmp_path / "index.npz")
        first = path.read_bytes()
        plan = FaultPlan().on("snapshot.pre_replace", "raise")
        with FAULTS.injected(plan):
            with pytest.raises(FaultInjected):
                store.save(path)
        assert path.read_bytes() == first  # previous artifact intact
        assert not list(tmp_path.glob("*.tmp"))
        # Payload sidecar is written atomically too.
        sidecar = path.with_suffix(".payloads.json")
        assert json.loads(sidecar.read_text()) == {}


class TestFaultRegistry:
    def test_disabled_fire_is_noop(self):
        FAULTS.fire("wal.pre_fsync")  # nothing armed: must not raise

    def test_nth_hit_semantics(self):
        plan = FaultPlan().on("p", nth=3)
        with FAULTS.injected(plan):
            FAULTS.fire("p")
            FAULTS.fire("p")
            with pytest.raises(FaultInjected) as exc:
                FAULTS.fire("p")
            assert exc.value.hit == 3
            FAULTS.fire("p")  # nth without every: one-shot

    def test_every_repeats(self):
        plan = FaultPlan().on("p", nth=2, every=True)
        with FAULTS.injected(plan):
            FAULTS.fire("p")
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    FAULTS.fire("p")

    def test_probability_is_deterministic(self):
        def run():
            fired = []
            plan = FaultPlan(seed=42).on("p", probability=0.5, every=True)
            with FAULTS.injected(plan):
                for i in range(20):
                    try:
                        FAULTS.fire("p")
                    except FaultInjected:
                        fired.append(i)
            return fired
        first, second = run(), run()
        assert first == second
        assert 0 < len(first) < 20

    def test_custom_exception(self):
        plan = FaultPlan().on("p", exc=OSError)
        with FAULTS.injected(plan):
            with pytest.raises(OSError):
                FAULTS.fire("p")

    def test_stats_counts_hits_and_fires(self):
        plan = FaultPlan().on("p", nth=2)
        with FAULTS.injected(plan):
            FAULTS.fire("p")
            with pytest.raises(FaultInjected):
                FAULTS.fire("p")
            FAULTS.fire("q")  # unruled point: not tracked
        assert plan.stats() == {"p": {"hits": 2, "fired": 1}}
