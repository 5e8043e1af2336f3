"""HNSW's bottom layer (Malkov & Yashunin 2020): baseline and NGFix*'s base graph.

The paper builds NGFix on HNSW's base layer only and enters every search at
the dataset medoid (Sec. 6.1): the upper layers contribute little in high
dimensions, and after NGFix* a descent through them and the medoid entry tie
at equal recall.  So this index is that layer and nothing else —
RNG-heuristic neighbour selection with pruned-connection backfill,
bidirectional linking with degree shrinking, entered at the navigating node
— with incremental :meth:`insert` after construction, which the maintenance
experiments (Fig. 18) rely on.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric
from repro.graphs.base import GraphIndex
from repro.graphs.insertion import BottomLayer
from repro.utils.validation import check_positive


class HNSW(BottomLayer, GraphIndex):
    """HNSW's bottom layer, built by
    :class:`~repro.graphs.insertion.BottomLayer`'s routine over the
    adjacency store — or restored from a saved file (:meth:`restore`, what
    :func:`~repro.io.load_index` calls), inserting the same way.

    Parameters
    ----------
    data, metric:
        Base vectors and similarity metric.
    M:
        Half the degree budget: a node keeps up to ``M0 = 2 * M`` out-edges.
    ef_construction:
        Beam width while collecting link candidates during insertion.
    """

    def __init__(
        self,
        data: np.ndarray,
        metric: Metric | str,
        M: int = 16,
        ef_construction: int = 100,
    ):
        super().__init__(data, metric)
        self._set_budget(M, ef_construction)
        # The build enters every insert at row 0, in one call; later inserts
        # enter at the navigating node (:meth:`BottomLayer.insert`).
        self._insert_rows(1, self.dc.size, [0])

    @classmethod
    def restore(cls, data, metric, arrays, entry, elected_at, *,
                M: int, ef_construction: int) -> "HNSW":
        """A saved HNSW, installed rather than built, that inserts with the
        degree budget and beam it was built with."""
        index = super().restore(data, metric, arrays, entry, elected_at)
        index._set_budget(M, ef_construction)
        return index

    def _set_budget(self, M: int, ef_construction: int) -> None:
        check_positive(M, "M")
        check_positive(ef_construction, "ef_construction")
        self.M = M
        self.M0 = 2 * M
        self.ef_construction = ef_construction
