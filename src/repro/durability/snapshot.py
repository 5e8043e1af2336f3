"""Atomic full-index snapshots bounding WAL replay.

A snapshot is two files, written in a fixed order so a crash at any
point leaves the previous snapshot intact and the half-written one
invisible:

1. ``snapshot-<id>.npz`` — the index artifact (vectors, the edge store's
   arrays, tombstone and removed ids, entry, payloads), via the atomic
   :func:`~repro.io.save_index` (tmp-file + ``os.replace``).
2. ``snapshot-<id>.manifest.json`` — written *last*; its presence is the
   commit point.  It records the WAL sequence number the snapshot
   captures, so recovery replays only records after it.

:meth:`SnapshotManager.latest` returns the newest snapshot whose manifest
and data files all exist; anything without a manifest is garbage from a
crashed writer and is ignored (and removed by :meth:`prune`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time

from repro.faults import FAULTS
from repro.io import save_index
from repro.obs import OBS, SECONDS_BUCKETS

_MANIFEST_VERSION = 1

_SNAPSHOTS = OBS.counter(
    "snapshots_written", "index snapshots committed")
_SNAPSHOT_SECONDS = OBS.histogram(
    "snapshot_write_seconds", "one snapshot write's latency in seconds",
    buckets=SECONDS_BUCKETS)


@dataclasses.dataclass
class SnapshotInfo:
    """One committed snapshot (parsed from its manifest)."""

    snapshot_id: int
    path: pathlib.Path
    manifest_path: pathlib.Path
    wal_seq: int
    n_vectors: int
    created_at: float


def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp sibling + ``os.replace``)."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


class SnapshotManager:
    """Writes, lists, and prunes snapshots inside one durability directory."""

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing -----------------------------------------------------------

    def _base(self, snapshot_id: int) -> pathlib.Path:
        return self.directory / f"snapshot-{snapshot_id:08d}"

    def write(self, fixer, payloads: dict, wal_seq: int) -> SnapshotInfo:
        """Atomically persist ``fixer``'s index + payloads at ``wal_seq``."""
        t0 = time.perf_counter()
        latest = self.latest()
        snapshot_id = (latest.snapshot_id if latest is not None else 0) + 1
        base = self._base(snapshot_id)
        info = SnapshotInfo(
            snapshot_id=snapshot_id,
            path=save_index(fixer, base.with_suffix(".npz"), payloads),
            manifest_path=base.with_suffix(".manifest.json"),
            wal_seq=int(wal_seq), n_vectors=int(fixer.dc.size),
            created_at=time.time())
        FAULTS.fire("snapshot.pre_manifest")
        atomic_write_text(info.manifest_path, json.dumps({
            "manifest_version": _MANIFEST_VERSION,
            "snapshot_id": snapshot_id,
            "wal_seq": info.wal_seq,
            "n_vectors": info.n_vectors,
            "created_at": info.created_at,
            "index": info.path.name,
        }))
        if OBS.enabled:
            _SNAPSHOTS.inc()
            _SNAPSHOT_SECONDS.observe(time.perf_counter() - t0)
        return info

    # -- reading -----------------------------------------------------------

    def list(self) -> list[SnapshotInfo]:
        """All committed snapshots, oldest first; invalid ones are skipped."""
        out = []
        for manifest_path in sorted(self.directory.glob(
                "snapshot-*.manifest.json")):
            try:
                meta = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if meta.get("manifest_version") != _MANIFEST_VERSION:
                continue
            path = manifest_path.with_name(meta["index"])
            if not path.exists():
                continue
            out.append(SnapshotInfo(
                snapshot_id=int(meta["snapshot_id"]), path=path,
                manifest_path=manifest_path,
                wal_seq=int(meta["wal_seq"]),
                n_vectors=int(meta["n_vectors"]),
                created_at=float(meta.get("created_at", 0.0))))
        return out

    def latest(self) -> SnapshotInfo | None:
        """The newest committed (manifest-valid) snapshot, or None."""
        snapshots = self.list()
        return snapshots[-1] if snapshots else None

    # -- retention ---------------------------------------------------------

    def prune(self, keep: int = 2) -> int:
        """Drop all but the ``keep`` newest snapshots (and crash orphans).

        An orphan is an index file with no manifest — debris from a
        writer that died before its commit point.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        stale = self.list()[:-keep]
        for info in stale:
            info.manifest_path.unlink(missing_ok=True)
            info.path.unlink(missing_ok=True)
        # Orphans: snapshot-prefixed files whose id has no manifest.
        for path in self.directory.glob("snapshot-*"):
            try:
                sid = int(path.name.split(".", 1)[0].split("-", 1)[1])
            except ValueError:
                continue
            if not self._base(sid).with_suffix(".manifest.json").exists():
                path.unlink(missing_ok=True)
        return len(stale)
