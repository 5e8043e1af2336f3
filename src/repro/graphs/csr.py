"""Frozen CSR snapshot of an :class:`~repro.graphs.adjacency.AdjacencyStore`.

The live store is mutated in place (NGFix/RFix, insertion, compaction), but
the serving path must read a graph that cannot change under it.  A
:class:`CSRGraphView` packs the combined base+extra adjacency into two
contiguous ``int32`` arrays (``indptr``/``indices``, DiskANN/Vamana style)
plus a parallel per-edge EH-tag array, so per-node reads are an O(1) slice
(no cache checks, no dict walks) and the native executor
(:mod:`repro.graphs.native`) can walk the two arrays directly.

Neighbor order inside a node is exactly the live store's order (base
edges first, then extra edges in insertion order), which keeps every search
over the view bit-identical to a search over the live store.  The view is a
*snapshot*: mutations to the originating store do not show through — the
store marks its cached view dirty and refreezes on demand (see
``AdjacencyStore.traversal``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs import native


class CSRGraphView:
    """Read-only CSR adjacency: ``indices[indptr[u]:indptr[u+1]]`` = out(u).

    ``edge_eh[e]`` carries the Escape Hardness tag of the extra edge stored
    at ``indices[e]`` (NaN for base edges, which carry no tag).  The view is
    callable with a node id so it can stand in for any ``neighbors_fn``.

    ``store_version`` records the originating store's mutation counter at
    freeze time; the store compares it on every ``csr_view()`` so a snapshot
    that lags the live graph (e.g. across a ``grow``) can never be served.
    """

    __slots__ = ("indptr", "indices", "edge_eh", "n_nodes", "n_edges",
                 "store_version", "_native")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 edge_eh: np.ndarray, store_version: int = -1):
        if indptr.ndim != 1 or indptr.shape[0] == 0:
            raise ValueError("indptr must be a non-empty 1-d array")
        if indices.shape[0] != edge_eh.shape[0]:
            raise ValueError("indices and edge_eh must align")
        self.indptr = indptr
        self.indices = indices
        self.edge_eh = edge_eh
        self.n_nodes = indptr.shape[0] - 1
        self.n_edges = indices.shape[0]
        self.store_version = store_version
        self._native = None  # built on first use (see native_graph)

    def neighbors(self, u: int) -> np.ndarray:
        """Out-neighbors of ``u`` as a zero-copy slice of ``indices``."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    # A view is drop-in for the ``neighbors_fn`` callables search takes.
    __call__ = neighbors

    def native_graph(self):
        """This snapshot as a :class:`repro.graphs.native.Graph` (built
        once: the arrays never change), or None when they are not the
        dense int32 pair the native kernel walks."""
        if self._native is None:
            self._native = (
                native.Graph(self.indptr, self.indices)
                if type(self) is CSRGraphView
                and native.dense(self.indptr, np.int32, 1)
                and native.dense(self.indices, np.int32, 1) else False)
        return self._native or None

    def out_degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def extra_edge_mask(self) -> np.ndarray:
        """Boolean mask over edges: True where the edge carries an EH tag."""
        return ~np.isnan(self.edge_eh)

    def nbytes(self) -> int:
        """Memory footprint of the snapshot arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.edge_eh.nbytes
