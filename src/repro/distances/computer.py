"""NDC-counting distance computer bound to a base dataset.

Graph indexes hold a :class:`DistanceComputer` rather than the raw matrix so
that (1) COSINE data is normalized exactly once, (2) every distance
evaluation is counted, giving the paper's NDC efficiency metric for free, and
(3) queries are prepared once per search (normalization for COSINE).
"""

from __future__ import annotations

import mmap
import os
import pathlib
import threading

import numpy as np

from repro.distances.metrics import Metric, normalize_rows
from repro.utils.growth import with_capacity
from repro.utils.validation import check_matrix, check_vector

_FLOAT32 = np.dtype(np.float32)

# Guards the ``ndc += n`` of what a search block runs — the engine's fold,
# ``block_to_queries``, the compressed fallback scan and re-rank: the blocks
# of one batch run on several threads (see ``repro.serving``), and ``+=`` on
# an attribute is a read-modify-write that a thread switch can split.
_NDC_LOCK = threading.Lock()


class DistanceComputer:
    """Distances from stored base vectors to queries/each other, with NDC count.

    Parameters
    ----------
    data:
        ``(n, d)`` base vectors.  Copied (and row-normalized for COSINE).
    metric:
        One of :class:`Metric` or its string form.
    """

    def __init__(self, data: np.ndarray, metric: Metric | str):
        self.metric = Metric.parse(metric)
        data = check_matrix(data, "data")
        if self.metric is Metric.COSINE:
            data = normalize_rows(data)
        # ``_data`` is the live ``[:size]`` view of ``_rows``, the
        # capacity-doubling array :meth:`append` writes into.
        self._rows = self._data = data
        self._row_sum: np.ndarray | None = None  # see centroid()
        self.ndc = 0
        self._memmap_path: pathlib.Path | None = None
        self._native = (None, None)  # (matrix, its spec): see native_rows()

    @property
    def data(self) -> np.ndarray:
        """The stored (possibly normalized) base matrix; treat as read-only."""
        return self._data

    @property
    def size(self) -> int:
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        return self._data.shape[1]

    # -- memmap tier ---------------------------------------------------------

    @staticmethod
    def _open_memmap(path: pathlib.Path, shape: tuple) -> np.ndarray:
        """Read-only memmap with random-access paging hints.

        The disk tier is gathered by scattered re-rank row fetches, so
        sequential readahead only drags untouched neighbors into memory;
        ``MADV_RANDOM`` keeps page-ins to the rows actually read.
        """
        data = np.memmap(path, dtype=np.float32, mode="r", shape=shape)
        try:
            data._mmap.madvise(mmap.MADV_RANDOM)
        except (AttributeError, OSError):  # platform without madvise
            pass
        return data

    @property
    def is_memmap(self) -> bool:
        """Whether the base matrix is disk-resident (``np.memmap``-backed)."""
        return self._memmap_path is not None

    @property
    def memmap_path(self) -> pathlib.Path | None:
        return self._memmap_path

    @property
    def vector_bytes(self) -> int:
        """Raw bytes of the base matrix (file size in memmap mode)."""
        return int(self._data.nbytes)

    def use_memmap(self, path: str | pathlib.Path) -> pathlib.Path:
        """Spill the base matrix to ``path`` and serve it memory-mapped.

        The stored (already COSINE-normalized) float32 matrix is written
        row-major to a raw file and ``_data`` is re-pointed at a read-only
        ``np.memmap`` over it, releasing the resident copy.  Distance
        kernels are unchanged — row gathers lazily page in only the rows
        they touch, which on the compressed hot path means the exact
        re-rank shortlist, not the traversal frontier.  Idempotent for the
        same path.
        """
        path = pathlib.Path(path)
        if self._memmap_path == path:
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        shape = self._data.shape
        arr = np.ascontiguousarray(self._data, dtype=np.float32)
        with open(path, "wb") as f:
            arr.tofile(f)
            f.flush()
            os.fsync(f.fileno())
        del arr
        # Release the resident copy (the cached spec holds it too).
        self._rows, self._native = None, (None, None)
        self._data = self._open_memmap(path, shape)
        self._memmap_path = path
        return path

    def remap(self) -> None:
        """Re-open the memmap, dropping this process's resident mapping.

        A fresh mapping starts with zero resident pages, so RSS measured
        after ``remap()`` reflects only the rows gathered *since* — the
        serving-phase disk-tier footprint, untainted by pages touched
        during build, PQ training, or ground-truth computation.
        """
        if self._memmap_path is None:
            raise ValueError("remap() requires memmap mode; call use_memmap")
        shape = self._data.shape
        self._native = (None, None)  # its spec would keep the old mapping
        self._data = self._open_memmap(self._memmap_path, shape)

    @classmethod
    def from_memmap(cls, path: str | pathlib.Path, dim: int,
                    metric: Metric | str) -> "DistanceComputer":
        """Open a spill file written by :meth:`use_memmap` without reading it.

        The file is trusted to hold prepared float32 rows (finite, and
        already normalized for COSINE) — validation would defeat the point
        of not paging the matrix in.  Row count is derived from the file
        size.
        """
        path = pathlib.Path(path)
        itemsize = np.dtype(np.float32).itemsize
        nbytes = path.stat().st_size
        if dim <= 0 or nbytes == 0 or nbytes % (itemsize * dim):
            raise ValueError(
                f"{path} ({nbytes} bytes) is not a whole number of "
                f"float32 rows of dimension {dim}")
        self = cls.__new__(cls)
        self.metric = Metric.parse(metric)
        self._data = self._open_memmap(path,
                                       (nbytes // (itemsize * dim), dim))
        self._rows = self._row_sum = None
        self.ndc = 0
        self._memmap_path = path
        self._native = (None, None)
        return self

    def append(self, rows: np.ndarray) -> int:
        """Append new base vectors (normalizing for COSINE); returns first new id.

        Supports incremental insertion (paper Sec. 5.5.1); existing ids are
        unchanged.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float32))
        if rows.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {rows.shape[1]}")
        if not np.isfinite(rows).all():
            raise ValueError("appended rows contain NaN or Inf")
        if self.metric is Metric.COSINE:
            rows = normalize_rows(rows)
        first_new = self.size
        if self._row_sum is not None:
            self._row_sum += rows.sum(axis=0, dtype=np.float64)
        if self._memmap_path is not None:
            # Disk-resident tier: append the prepared rows to the spill file
            # and remap at the new length — existing pages stay shared.
            with open(self._memmap_path, "ab") as f:
                np.ascontiguousarray(rows, dtype=np.float32).tofile(f)
                f.flush()
                os.fsync(f.fileno())
            self._data = self._open_memmap(
                self._memmap_path, (first_new + rows.shape[0], self.dim))
        else:
            size = first_new + rows.shape[0]
            self._rows = with_capacity(self._rows, first_new, size)
            self._rows[first_new:size] = rows
            self._data = self._rows[:size]
        return first_new

    def centroid(self) -> np.ndarray:
        """Mean of the stored rows (float32).  The first call sums the
        matrix; from then on :meth:`append` keeps the float64 sum running,
        so the centroid after an insert costs O(d), not O(n·d)."""
        if self._row_sum is None:
            self._row_sum = self._data.sum(axis=0, dtype=np.float64)
        return (self._row_sum / self.size).astype(np.float32)

    def reset_ndc(self) -> int:
        """Zero the NDC counter, returning the previous value."""
        previous = self.ndc
        self.ndc = 0
        return previous

    def prepare_query(self, query: np.ndarray) -> np.ndarray:
        """Validate (and for COSINE normalize) a query vector once per search."""
        q = check_vector(query, "query", dim=self.dim)
        return self._normalize_rows(q[None, :])[0]

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Batch :meth:`prepare_query`: one ``(B, d)`` block, vectorized.

        Per-query preparation is ef-independent overhead that dominates
        small-``ef`` batched searches (it is why a shard-sized block does
        not get proportionally cheaper as its graph shrinks).  Both entry
        points share :meth:`_normalize_rows`, so a row prepared here is
        bit-identical to the same vector prepared alone — the
        sequential/batched equivalence of the search engines depends on it.
        """
        qm = np.ascontiguousarray(queries, dtype=np.float32)
        if qm.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {qm.shape}")
        if qm.shape[1] != self.dim:
            raise ValueError(f"queries must have dimension {self.dim}, "
                             f"got {qm.shape[1]}")
        if not np.isfinite(qm).all():
            raise ValueError("queries contain NaN or Inf")
        return self._normalize_rows(qm)

    def _normalize_rows(self, qm: np.ndarray) -> np.ndarray:
        """Shared COSINE row normalization (other metrics pass through).

        Near-zero rows are left unnormalized but force the whole block to
        float64, matching what stacking per-row prepared vectors (float32
        rows + float64 degenerate rows) always produced.
        """
        if self.metric is not Metric.COSINE:
            return qm
        norms = np.sqrt(np.einsum("ij,ij->i", qm, qm))
        safe = norms > 1e-12
        out = qm / np.where(safe, norms, 1.0)[:, None]
        if not safe.all():
            out = out.astype(np.float64)
        return out

    def native_rows(self):
        """The base matrix as a :class:`repro.graphs.native.Scorer`
        ``(kind, rows)`` the native core reads in place, or None when it
        cannot stand in for this computer's kernels: a subclass (it may
        score differently), a base matrix that is not a C-contiguous
        float32 ndarray.  Built once per base matrix: every assignment of
        ``_data`` (:meth:`append`, :meth:`use_memmap`, :meth:`remap`)
        makes a new one.
        """
        data = self._data
        cached = self._native
        if cached[0] is not data:
            from repro.graphs import native  # repro.graphs imports this module

            spec = (native.Scorer(native.EXACT_KINDS[self.metric.value], data)
                    if type(self) is DistanceComputer
                    and native.dense(data, np.float32, 2) else None)
            # One assignment: a concurrent reader sees the old pair or the
            # new one, never a spec of another matrix.
            cached = self._native = (data, spec)
        return cached[1]

    def native_scorer(self, queries: np.ndarray):
        """This computer bound to the prepared ``(B, d)`` ``queries`` — the
        pair ``(native_rows(), queries)`` — or None when :meth:`native_rows`
        has none or the block is not float32 (the float64 block of a
        degenerate COSINE query).  The kernel checks the rest of the
        block's layout itself.
        """
        rows = self.native_rows()
        if rows is None or queries.dtype != _FLOAT32:
            return None
        return rows, queries

    def to_query(self, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """Distances from base rows ``ids`` to a *prepared* query vector.

        The per-hop kernel of the sequential search, so it skips what the
        block kernel needs only for row alignment: ``take`` gathers with
        whatever integer ids the graph stores (CSR slices are int32) and
        ``"ij,j->i"`` lets einsum broadcast the query.  The per-row
        reduction is the one :meth:`block_to_queries` runs, so the two stay
        bit-identical (property-tested in ``tests/test_distances.py``) —
        which rules out BLAS matrix-vector products here: they accumulate
        in a different order.
        """
        self.ndc += len(ids)
        rows = self._data.take(ids, axis=0)
        if self.metric is Metric.L2:
            diff = rows - query
            return np.einsum("ij,ij->i", diff, diff)
        if self.metric is Metric.INNER_PRODUCT:
            return -np.einsum("ij,j->i", rows, query)
        return 1.0 - np.einsum("ij,j->i", rows, query)

    def block_to_queries(self, ids: np.ndarray, queries: np.ndarray,
                         owners: np.ndarray) -> np.ndarray:
        """Distances from base rows ``ids[i]`` to prepared ``queries[owners[i]]``.

        The batched-search kernel: one call scores every frontier neighbor
        of every active query in a block (``ids``/``owners`` are
        row-aligned into the ``(B, d)`` prepared-query matrix).  NDC accrues
        exactly as the equivalent per-query :meth:`to_query` calls would,
        and the same einsum per-row reduction makes the distances
        bit-identical to them — the sequential/batched equivalence of the
        search engines depends on it.
        """
        ids = np.asarray(ids, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        if ids.shape != owners.shape:
            raise ValueError("ids and owners must align")
        with _NDC_LOCK:
            self.ndc += ids.shape[0]
        rows, qrows = self._data[ids], queries[owners]
        if self.metric is Metric.L2:
            diff = rows - qrows
            return np.einsum("ij,ij->i", diff, diff)
        if self.metric is Metric.INNER_PRODUCT:
            return -np.einsum("ij,ij->i", rows, qrows)
        return 1.0 - np.einsum("ij,ij->i", rows, qrows)

    def one_to_query(self, i: int, query: np.ndarray) -> float:
        """Distance from base row ``i`` to a prepared query."""
        self.ndc += 1
        row = self._data[i]
        if self.metric is Metric.L2:
            diff = row - query
            return float(diff @ diff)
        if self.metric is Metric.INNER_PRODUCT:
            return float(-(row @ query))
        return float(1.0 - row @ query)

    def between(self, i: int, j: int) -> float:
        """Distance between two stored base rows."""
        return self.one_to_query(int(j), self._data[int(i)])

    def many_between(self, ids: np.ndarray, j: int) -> np.ndarray:
        """Distances from base rows ``ids`` to base row ``j``."""
        return self.to_query(ids, self._data[int(j)])

    def all_to_query(self, query: np.ndarray) -> np.ndarray:
        """Distances from every base row to a prepared query (brute force)."""
        self.ndc += self.size
        if self.metric is Metric.L2:
            diff = self._data - query
            return np.einsum("ij,ij->i", diff, diff)
        if self.metric is Metric.INNER_PRODUCT:
            return -(self._data @ query)
        return 1.0 - self._data @ query
