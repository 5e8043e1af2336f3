"""Frozen CSR snapshot of an :class:`~repro.graphs.adjacency.AdjacencyStore`.

The live store is mutated in place (NGFix/RFix, insertion, compaction), but
the serving path must read a graph that cannot change under it.  A
:class:`CSRGraphView` packs the combined base+extra adjacency into two
contiguous ``int32`` arrays (``indptr``/``indices``, DiskANN/Vamana style),
so per-node reads are an O(1) slice and the native executor
(:mod:`repro.graphs.native`) can walk the two arrays directly.

Neighbor order inside a node is exactly the live store's order (base
edges first, then extra edges in insertion order), which keeps every search
over the view bit-identical to a search over the live store.  The view is a
*snapshot*: mutations to the originating store do not show through.  A
store is frozen when a serving epoch is cut
(:meth:`repro.serving.EpochManager.cut`); every other search walks the
store's own slab.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import native


class CSRGraphView:
    """Read-only CSR adjacency: ``indices[indptr[u]:indptr[u+1]]`` = out(u).

    The view is callable with a node id so it can stand in for any
    ``neighbors_fn``.
    """

    __slots__ = ("indptr", "indices", "n_nodes", "n_edges", "_native")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        if indptr.ndim != 1 or indptr.shape[0] == 0:
            raise ValueError("indptr must be a non-empty 1-d array")
        self.indptr = indptr
        self.indices = indices
        self.n_nodes = indptr.shape[0] - 1
        self.n_edges = indices.shape[0]
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
