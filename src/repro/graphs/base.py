"""GraphIndex base class and the brute-force reference index."""

from __future__ import annotations

import abc
import copy

import numpy as np

from repro.distances import DistanceComputer, Metric
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.search import BatchSearchEngine, SearchResult, VisitedTable


def medoid_id(dc: DistanceComputer, dead=None) -> int:
    """Id of the base point closest to the dataset centroid.

    The paper fixes the search entry point at "the centroid of the base data"
    (Sec. 5.4); since the centroid itself is not a data point, the nearest
    base point (the medoid in this loose sense) is used, as NSG does.
    ``dead`` (a set of ids, or None) are rows that may not be elected —
    tombstoned or compacted nodes whose vectors linger in the matrix.
    """
    q = dc.prepare_query(dc.centroid())
    saved = dc.ndc
    dists = dc.all_to_query(q)
    dc.ndc = saved  # index-build bookkeeping, not query work
    if dead:
        dists[np.fromiter(dead, dtype=np.int64, count=len(dead))] = np.inf
    return int(np.argmin(dists))


def live_graph_engine(cached: BatchSearchEngine | None, index,
                      batch_size: int) -> BatchSearchEngine:
    """The exact batch engine over ``index``'s live graph, reusing ``cached``
    if it fits.

    ``index`` is anything exposing ``dc``, ``adjacency`` and
    ``entry_points`` (a :class:`GraphIndex`, an ``NGFixer``).  The engine
    scores with ``index.dc`` at width 1, walks the store itself — its slab,
    which both executors read in place — and honors tombstones per block; no
    search over the live graph builds a CSR.  A cached engine is kept only
    while its ``batch_size`` still matches.
    """
    if cached is not None and cached.batch_size == batch_size:
        return cached
    adjacency = index.adjacency
    return BatchSearchEngine(
        index.dc, adjacency, index.entry_points,
        excluded_fn=adjacency.excluded_ids, batch_size=batch_size)


class GraphIndex(abc.ABC):
    """Common shell for all graph indexes.

    Subclasses populate ``self.adjacency`` (an :class:`AdjacencyStore` over
    the bottom search layer) and implement :meth:`entry_points`.  Search runs
    Algorithm 1 over the combined base+extra adjacency, honoring tombstones.
    """

    def __init__(self, data: np.ndarray, metric: Metric | str):
        self.dc = DistanceComputer(data, metric)
        self.adjacency = AdjacencyStore(self.dc.size)
        self._visited = VisitedTable(self.dc.size)
        self._batch_engine: BatchSearchEngine | None = None

    @property
    def size(self) -> int:
        return self.dc.size

    @property
    def dim(self) -> int:
        return self.dc.dim

    @property
    def metric(self) -> Metric:
        return self.dc.metric

    @abc.abstractmethod
    def entry_points(self, query: np.ndarray) -> list[int]:
        """Starting node ids for a (prepared) query."""

    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> SearchResult:
        """Greedy-search the bottom layer for the top-``k`` neighbors: a
        block of one."""
        return self.search_batch(np.asarray(query, dtype=np.float32)[None],
                                 k, ef)[0]

    def search_batch(self, queries: np.ndarray, k: int, ef: int | None = None,
                     batch_size: int = 32) -> list[SearchResult]:
        """Batched search: one :class:`SearchResult` per query row.

        Resolves tombstones and entries once per block of ``batch_size``
        queries and walks the live graph for the block in one native call;
        rows with fewer than ``k`` results come back short
        (:func:`~repro.graphs.search.pad_results` packs them into padded
        arrays).
        """
        if ef is None:
            ef = max(k, 10)
        self._batch_engine = live_graph_engine(self._batch_engine, self,
                                               batch_size)
        return self._batch_engine.search_batch(queries, k, ef)

    def clone(self) -> "GraphIndex":
        """An independent copy sharing nothing mutable with the original.

        Cloning an already-built index is far cheaper than rebuilding it;
        benchmarks use this to fork one cached base graph into several
        fixing/ablation arms.
        """
        out = self.__class__.__new__(self.__class__)
        for key, value in self.__dict__.items():
            if key == "dc":
                out.dc = DistanceComputer(self.dc.data, self.dc.metric)
            elif key == "adjacency":
                out.adjacency = self.adjacency.copy()
            elif key == "_visited":
                out._visited = VisitedTable(self.dc.size)
            elif key == "_batch_engine":
                out._batch_engine = None  # holds refs to the source's dc/graph
            else:
                setattr(out, key, copy.deepcopy(value))
        return out

    # -- reporting ------------------------------------------------------------

    def stats(self) -> dict:
        """Degree/size statistics (paper Sec. 6.5 accounting)."""
        return {
            "n_nodes": self.size,
            "n_base_edges": self.adjacency.n_base_edges(),
            "n_extra_edges": self.adjacency.n_extra_edges(),
            "avg_out_degree": self.adjacency.average_out_degree(),
            "index_size_bytes": self.adjacency.index_size_bytes(),
            "n_tombstones": len(self.adjacency.tombstones),
        }


class BruteForceIndex:
    """Exact search by full scan — the accuracy ceiling for sanity checks.

    Implements the same ``search``/``dc`` interface as graph indexes so it
    can run through the evaluation harness.
    """

    def __init__(self, data: np.ndarray, metric: Metric | str):
        self.dc = DistanceComputer(data, metric)

    def search(self, query: np.ndarray, k: int, ef: int | None = None) -> SearchResult:
        """Exact top-k by scanning all base vectors (``ef`` ignored)."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        q = self.dc.prepare_query(query)
        dists = self.dc.all_to_query(q)
        k = min(k, dists.shape[0])
        part = np.argpartition(dists, k - 1)[:k]
        order = np.argsort(dists[part], kind="stable")
        ids = part[order].astype(np.int64)
        return SearchResult(ids=ids, distances=dists[ids].astype(np.float64))
