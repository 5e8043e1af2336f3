"""Crash recovery: newest valid snapshot + WAL-tail replay.

``recover(wal_dir)`` rebuilds a serving-ready
:class:`~repro.store.VectorStore` from a durability directory:

1. Load the newest *committed* snapshot (manifest present — torn snapshot
   writes are invisible by construction).  Its manifest pins the WAL
   sequence number it captures.
2. Open the WAL (torn-tail truncation happens here) and replay every
   record after that sequence number, in order: inserts re-enter the
   graph (pending until the build marker, incrementally after it — the
   same bulk/incremental split the original store used), build markers
   run the one-shot HNSW construction, deletes re-tombstone (and
   re-trigger the same compactions), observe records re-run the online
   NGFix/RFix repair that was acknowledged before the crash, and
   merge-cut markers re-cut epochs so the recovered store's serving
   cadence matches the original.
3. Verify the terminal sequence number and structural invariants
   (sequence continuity, vector-count accounting, every replayed delete
   tombstoned or compacted) and surface the outcome as a
   :class:`RecoveryReport`.

Snapshots are loaded as :class:`ReplayableIndex` — a
:class:`~repro.io.FrozenIndex` extended with the live store's bottom-layer
insertion routine — so a recovered store accepts new writes, unlike a plain
``VectorStore.load()`` store.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

import numpy as np

from repro.config import CONFIG_NAME, StoreConfig
from repro.durability.snapshot import SnapshotManager
from repro.durability.wal import WriteAheadLog, read_wal
from repro.graphs.insertion import BottomLayer
from repro.io import FrozenIndex, load_index
from repro.obs import OBS, SECONDS_BUCKETS

_RECOVERIES = OBS.counter(
    "recovery_runs", "recovery attempts")
_RECOVERY_RECORDS = OBS.counter(
    "recovery_replayed_records", "WAL records replayed during recovery")
_RECOVERY_ERRORS = OBS.counter(
    "recovery_inconsistencies", "consistency violations found by recovery")
_RECOVERY_SECONDS = OBS.histogram(
    "recovery_seconds", "one full recovery's latency in seconds",
    buckets=SECONDS_BUCKETS)


class RecoveryError(RuntimeError):
    """Recovery cannot proceed (no snapshot and no replayable WAL)."""


class ReplayableIndex(BottomLayer, FrozenIndex):
    """A loaded snapshot that supports incremental insertion.

    ``FrozenIndex`` is searchable but rejects writes; WAL replay (and any
    post-recovery traffic) needs ``insert``.  Insertion here is the live
    store's: :meth:`BottomLayer.insert <repro.graphs.insertion.BottomLayer.insert>`,
    entered at the navigating node — which starts out as the snapshot's
    entry, the live store's own at the checkpoint.
    """

    def __init__(self, data: np.ndarray, metric, entry: int, *,
                 M: int, ef_construction: int):
        super().__init__(data, metric, entry)
        self.M0 = 2 * M
        self.ef_construction = ef_construction
        self._medoid, self._medoid_size = self.entry, self.dc.size


@dataclasses.dataclass
class RecoveryReport:
    """What a recovery did, and whether the result is consistent."""

    wal_dir: str
    snapshot_id: int | None
    snapshot_wal_seq: int
    terminal_seq: int
    replayed: dict
    truncated_bytes: int
    n_vectors: int
    n_deleted: int
    elapsed_seconds: float
    errors: list[str]

    @property
    def consistent(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["consistent"] = self.consistent
        return out


def recover(wal_dir: str | pathlib.Path, *, replay_observes: bool = True,
            attach_wal: bool = True, **overrides):
    """Rebuild a store from ``wal_dir``; returns ``(store, report)``.

    The store restarts with the :class:`~repro.config.StoreConfig` recorded
    in the directory's ``store-config.json`` (every field; keys this version
    no longer knows, such as an old file's ``serving``, are ignored and keys
    an older version did not write take today's defaults).  ``overrides``
    are ``StoreConfig`` fields that replace the recorded ones for this
    process (``recover(d, merge_every=64)``); ``dim``, ``metric`` (which
    the directory's data fixes) or an unknown name raise ``TypeError``.
    With ``attach_wal`` (default) the recovered store continues logging
    into the same WAL, so it is immediately crash-safe again; pass False
    for a read-mostly post-mortem load.

    Raises :class:`RecoveryError` when the directory holds neither a
    committed snapshot nor a replayable insert history.
    """
    from repro.store import VectorStore  # deferred: store imports wal/snapshot

    if overrides.keys() & {"dim", "metric"}:
        raise TypeError("recover() cannot override dim or metric: the "
                        "directory's data fixes them")
    t0 = time.perf_counter()
    wal_dir = pathlib.Path(wal_dir)
    config_path = wal_dir / CONFIG_NAME
    stored = json.loads(config_path.read_text()) if config_path.exists() else {}

    def shell_config(**geometry) -> StoreConfig:
        # A directory that lost its config file still recovers from a
        # snapshot: ``geometry`` is the dim and metric the snapshot knows.
        return dataclasses.replace(
            StoreConfig.from_dict({**geometry, **stored}), **overrides)

    info = SnapshotManager(wal_dir).latest()
    if info is None and "dim" not in stored:
        raise RecoveryError(
            f"{wal_dir} has no committed snapshot and no {CONFIG_NAME}; "
            "cannot rebuild the store shell")

    errors: list[str] = []
    if info is not None:
        def replayable(data, metric, entry):
            config = shell_config(dim=data.shape[1], metric=metric)
            return ReplayableIndex(data, metric, entry, M=config.M,
                                   ef_construction=config.ef_construction)

        index = load_index(info.path, index_cls=replayable)
        store = VectorStore(**vars(shell_config(
            dim=index.dc.dim, metric=index.dc.metric)))
        # PQ codes are derived state, not journaled: a compressed store
        # re-fits them here.
        store._adopt_index(index)
        snap_seq = info.wal_seq
        base_n = info.n_vectors
        if index.dc.size != base_n:
            errors.append(
                f"snapshot {info.snapshot_id} holds {index.dc.size} vectors, "
                f"manifest says {base_n}")
    else:
        store = VectorStore(**vars(shell_config()))
        snap_seq = 0
        base_n = 0

    # Opening the log truncates any torn tail *before* replay reads it.
    wal = WriteAheadLog(wal_dir, sync_every=store.config.sync_every)
    if info is None and wal.n_records == 0:
        wal.close()
        raise RecoveryError(
            f"{wal_dir} has no committed snapshot and no WAL records")

    replayed = {"insert": 0, "build": 0, "delete": 0, "observe": 0,
                "merge_cut": 0, "rows_inserted": 0}
    deleted_replayed: set[int] = set()
    last_seq = snap_seq
    for record in read_wal(wal_dir, after_seq=snap_seq):
        if record.seq != last_seq + 1:
            errors.append(f"sequence gap: {last_seq} -> {record.seq}")
        last_seq = record.seq
        if record.op == "insert":
            ids = store.add(record.vectors, payloads=record.payloads)
            replayed["insert"] += 1
            replayed["rows_inserted"] += len(ids)
            if ids and ids[0] != record.first_id:
                errors.append(
                    f"seq {record.seq}: replayed insert got id {ids[0]}, "
                    f"log recorded {record.first_id}")
        else:
            # Build markers place the bulk/incremental boundary exactly
            # where the original store built; any other op implies the
            # store was built by then (older logs lack the marker).
            if not store.is_built:
                store.build()
            if record.op == "build":
                replayed["build"] += 1
            elif record.op == "delete":
                store.delete(record.ids)
                deleted_replayed.update(int(i) for i in record.ids)
                replayed["delete"] += 1
            elif record.op == "observe":
                if replay_observes:
                    # Repair directly (bypassing admission control): the
                    # record exists because this repair was acknowledged.
                    with store.scheduler.write_lock:
                        store._fixer.fix_query(record.query)
                replayed["observe"] += 1
            else:  # merge_cut
                store.scheduler.merge_now()
                replayed["merge_cut"] += 1
    if not store.is_built:
        if store._pending:
            store.build()
        else:
            wal.close()
            raise RecoveryError(
                f"{wal_dir}: WAL holds no insert records and no snapshot "
                "exists; nothing to recover")

    # -- consistency checks -------------------------------------------------
    if last_seq != wal.seq:
        errors.append(
            f"terminal seq mismatch: replayed through {last_seq}, "
            f"log scan says {wal.seq}")
    expected_n = base_n + replayed["rows_inserted"]
    if store.dc.size != expected_n:
        errors.append(
            f"vector count {store.dc.size} != snapshot {base_n} + "
            f"replayed {replayed['rows_inserted']}")
    missing = deleted_replayed - store.deleted_ids
    if missing:
        errors.append(
            f"{len(missing)} replayed deletes not tombstoned/compacted: "
            f"{sorted(missing)[:8]}")
    if store.epochs.overlay is None:
        errors.append("serving stack attached without an overlay")

    if attach_wal:
        store._attach_wal(wal, SnapshotManager(wal_dir))
    else:
        wal.close()

    elapsed = time.perf_counter() - t0
    if OBS.enabled:
        _RECOVERIES.inc()
        _RECOVERY_RECORDS.inc(sum(
            replayed[op] for op in ("insert", "build", "delete", "observe",
                                    "merge_cut")))
        _RECOVERY_ERRORS.inc(len(errors))
        _RECOVERY_SECONDS.observe(elapsed)
    report = RecoveryReport(
        wal_dir=str(wal_dir),
        snapshot_id=info.snapshot_id if info is not None else None,
        snapshot_wal_seq=snap_seq,
        terminal_seq=last_seq,
        replayed=replayed,
        truncated_bytes=wal.truncated_bytes,
        n_vectors=store.dc.size,
        n_deleted=len(store.deleted_ids),
        elapsed_seconds=elapsed,
        errors=errors,
    )
    return store, report
