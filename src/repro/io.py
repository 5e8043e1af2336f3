"""Index persistence: save any built graph index, reload it searchable.

A production deployment builds (and fixes) once, then serves from many
processes; this module writes the searchable artifact — base vectors,
the edge store's own arrays (:meth:`AdjacencyStore.arrays
<repro.graphs.adjacency.AdjacencyStore.arrays>`), and the metadata and
payloads as JSON bytes — into a single uncompressed ``.npz`` file.

The loaded object is a :class:`FrozenIndex`: fully searchable, usable as an
:class:`~repro.core.fixer.NGFixer` base (so fixing can continue on a loaded
index), but without the original builder's insert machinery.  Re-building is
required to insert new points into a frozen index.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

import numpy as np

from repro.distances import Metric
from repro.faults import FAULTS
from repro.graphs.base import GraphIndex

_FORMAT_VERSION = 2


class FrozenIndex(GraphIndex):
    """A searchable graph index reconstructed from a saved artifact."""

    def __init__(self, data: np.ndarray, metric: Metric | str, entry: int):
        super().__init__(data, metric)
        self.entry = int(entry)
        self.payloads: dict[int, Any] = {}  # by id, as the file holds them

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self.entry]


def _resolve(obj) -> tuple[GraphIndex, int]:
    """The index to save — ``obj``, or the ``.index`` of an NGFixer-like
    wrapper — and its entry: ``obj.entry``, else the index's medoid."""
    index = obj if isinstance(obj, GraphIndex) else getattr(obj, "index", None)
    if not isinstance(index, GraphIndex):
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    if hasattr(obj, "entry"):
        return index, int(obj.entry)
    return index, int(index.medoid()) if hasattr(index, "medoid") else 0


def save_index(obj, path: str | pathlib.Path,
               payloads: dict[int, Any] | None = None) -> pathlib.Path:
    """Serialize a graph index (or an NGFixer wrapping one) to ``path``,
    with ``payloads`` (JSON-serializable values by vector id) beside it.

    Returns the written path (``.npz`` appended if missing).

    The write is atomic: bytes go to a ``*.tmp`` sibling (fsynced) and the
    final name appears only via ``os.replace``, so a crash mid-save can
    never corrupt a previous good artifact at ``path``.
    """
    index, entry = _resolve(obj)
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")

    meta = {"format_version": _FORMAT_VERSION, "metric": index.metric.value,
            "source_class": type(index).__name__, "entry": entry}
    # Atomic publish: savez against an open handle (so numpy cannot append
    # a second .npz suffix to the tmp name), fsync, then one os.replace.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, data=index.dc.data, **index.adjacency.arrays(), **{
                name: np.frombuffer(json.dumps(value).encode(), np.uint8)
                for name, value in (("meta", meta), ("payloads", payloads or {}))})
            f.flush()
            os.fsync(f.fileno())
        FAULTS.fire("snapshot.pre_replace")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_index(path: str | pathlib.Path, index_cls=FrozenIndex,
               memmap_dir: str | pathlib.Path | None = None) -> FrozenIndex:
    """Reload a saved index as a searchable :class:`FrozenIndex` carrying
    the file's ``payloads``.

    ``index_cls`` optionally substitutes the reconstructed class — any
    ``(data, metric, entry)`` callable returning a :class:`FrozenIndex`
    subclass (recovery uses this to load snapshots as a
    :class:`~repro.durability.recovery.ReplayableIndex`).

    The graph arrays go into the index's store in one checked step
    (:meth:`~repro.graphs.adjacency.AdjacencyStore.install`): a corrupt
    file raises ``ValueError`` naming the field, as does another version.

    ``memmap_dir`` enables the disk-resident vector tier: the base matrix
    is spilled to ``<memmap_dir>/<stem>.vecs`` (a file of its own: the tier
    appends inserted rows, a saved index never changes) and served through
    ``np.memmap`` (see :meth:`~repro.distances.DistanceComputer.use_memmap`),
    so steady-state RSS excludes the raw vectors.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as file:
        meta = json.loads(bytes(file["meta"]).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format {meta.get('format_version')!r}")
        data, slab = file["data"], file["slab"]
        if (data.dtype != np.float32 or data.ndim != 2
                or data.shape[:1] != slab.shape[:1]):
            raise ValueError(f"data: expected float32 rows, one per slab "
                             f"row; got {data.dtype} of shape {data.shape}")
        if not 0 <= meta["entry"] < data.shape[0]:
            raise ValueError(f"entry: {meta['entry']} outside "
                             f"[0, {data.shape[0]})")
        index = index_cls(data, meta["metric"], meta["entry"])
        index.adjacency.install(slab, *(file[name] for name in (
            "eh", "degree", "base_count", "tombstones", "removed")))
        payloads = json.loads(bytes(file["payloads"]).decode())
    if not isinstance(payloads, dict):
        raise ValueError("payloads: expected a JSON object")
    index.payloads = {int(k): v for k, v in payloads.items()}
    if memmap_dir is not None:
        index.dc.use_memmap(pathlib.Path(memmap_dir) / f"{path.stem}.vecs")
    return index
