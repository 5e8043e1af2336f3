"""Index persistence: save any built graph index, reload it searchable.

A production deployment builds (and fixes) once, then serves from many
processes; this module serializes the searchable artifact — base vectors,
metric, adjacency (base edges as CSR, extra edges as (u, v, EH) triplets),
tombstones, and the entry point — into a single ``.npz`` file.

The loaded object is a :class:`FrozenIndex`: fully searchable, usable as an
:class:`~repro.core.fixer.NGFixer` base (so fixing can continue on a loaded
index), but without the original builder's insert machinery.  Re-building is
required to insert new points into a frozen index.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.distances import Metric
from repro.faults import FAULTS
from repro.graphs.base import GraphIndex

_FORMAT_VERSION = 1


class FrozenIndex(GraphIndex):
    """A searchable graph index reconstructed from a saved artifact."""

    def __init__(self, data: np.ndarray, metric: Metric | str, entry: int):
        super().__init__(data, metric)
        self.entry = int(entry)

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self.entry]


def _resolve_target(obj) -> GraphIndex:
    """Accept a GraphIndex or an NGFixer-like wrapper exposing ``.index``."""
    if isinstance(obj, GraphIndex):
        return obj
    inner = getattr(obj, "index", None)
    if isinstance(inner, GraphIndex):
        return inner
    raise TypeError(f"cannot save object of type {type(obj).__name__}")


def _entry_of(obj, index: GraphIndex) -> int:
    if hasattr(obj, "entry"):  # NGFixer
        return int(obj.entry)
    if hasattr(index, "medoid"):
        return int(index.medoid())
    return 0


def save_index(obj, path: str | pathlib.Path) -> pathlib.Path:
    """Serialize a graph index (or an NGFixer wrapping one) to ``path``.

    Returns the written path (``.npz`` appended if missing).

    The write is atomic: bytes go to a ``*.tmp`` sibling (fsynced) and the
    final name appears only via ``os.replace``, so a crash mid-save can
    never corrupt a previous good artifact at ``path``.
    """
    index = _resolve_target(obj)
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")

    adjacency = index.adjacency

    meta = {
        "format_version": _FORMAT_VERSION,
        "metric": index.metric.value,
        "source_class": type(index).__name__,
        "entry": _entry_of(obj, index),
    }
    # Atomic publish: savez against an open handle (so numpy cannot append
    # a second .npz suffix to the tmp name), fsync, then one os.replace.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(
                f,
                data=index.dc.data,
                **adjacency._edge_arrays(),
                tombstones=np.array(sorted(adjacency.tombstones),
                                    dtype=np.int64),
                removed=np.array(sorted(adjacency.removed), dtype=np.int64),
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
            f.flush()
            os.fsync(f.fileno())
        FAULTS.fire("snapshot.pre_replace")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_index(path: str | pathlib.Path, index_cls=None,
               memmap_dir: str | pathlib.Path | None = None) -> FrozenIndex:
    """Reload a saved index as a searchable :class:`FrozenIndex`.

    ``index_cls`` optionally substitutes the reconstructed class — any
    ``(data, metric, entry)`` callable returning a :class:`FrozenIndex`
    subclass (recovery uses this to load snapshots as a
    :class:`~repro.durability.recovery.ReplayableIndex`).

    ``memmap_dir`` enables the disk-resident vector tier: after
    reconstruction the base matrix is spilled to
    ``<memmap_dir>/<stem>.vecs`` and served through ``np.memmap`` (see
    :meth:`~repro.distances.DistanceComputer.use_memmap`), so steady-state
    RSS excludes the raw vectors.  Loading still decompresses the matrix
    once (npz holds it inline); only the serving footprint shrinks.
    """
    path = pathlib.Path(path)
    if index_cls is None:
        index_cls = FrozenIndex
    with np.load(path) as payload:
        meta = json.loads(bytes(payload["meta"]).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format {meta.get('format_version')!r}")
        index = index_cls(payload["data"], meta["metric"], meta["entry"])
        indptr = payload["indptr"]
        indices = payload["indices"]
        for u in range(indptr.shape[0] - 1):
            index.adjacency.set_base_neighbors(
                u, indices[indptr[u]:indptr[u + 1]].tolist())
        for u, v, eh in zip(payload["extra_u"], payload["extra_v"],
                            payload["extra_eh"]):
            index.adjacency.add_extra_edge(int(u), int(v), float(eh))
        index.adjacency.tombstones.update(int(t) for t in payload["tombstones"])
        if "removed" in payload:  # absent in pre-compaction-aware artifacts
            index.adjacency.removed.update(int(t) for t in payload["removed"])
    if memmap_dir is not None:
        index.dc.use_memmap(pathlib.Path(memmap_dir) / f"{path.stem}.vecs")
    return index
