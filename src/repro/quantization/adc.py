"""ADC distance computer: the PQ-resident scoring kernel for graph search.

:class:`ADCComputer` is a drop-in for the ``dc`` slot of
:class:`~repro.graphs.search.BatchSearchEngine` (and of the sequential PQ
traversal) that scores candidates with asymmetric-distance table lookups
over a resident uint8 code matrix instead of full-precision rows.  The
full-precision :class:`~repro.distances.DistanceComputer` stays attached as
``base`` and is touched only for query preparation, incremental re-encoding,
and the caller's exact re-rank of the final shortlist — which is the whole
point: the traversal hot path reads ``n * m`` bytes of codes, and the raw
vector matrix can live on disk (see ``DistanceComputer.use_memmap``).

NDC accounting is split: ``ADCComputer.ndc`` counts cheap ADC scorings
(``m`` table lookups each), while exact distance computations keep accruing
on ``base.ndc`` — benches report both, and the paper's expensive-NDC metric
collapses to the re-rank budget.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.distances import DistanceComputer
from repro.quantization.pq import ProductQuantizer
from repro.utils.growth import with_capacity


class ADCComputer:
    """Distance-computer facade scoring by PQ table lookups.

    Parameters
    ----------
    base:
        The full-precision computer over the same base rows (only consulted
        for query prep and code re-encoding; exact scoring stays with it).
    pq:
        A quantizer; fitted on ``base.data`` when not already fitted.
    Implements the engine-facing protocol (``size``/``dim``/``metric``/
    ``ndc``/``prepare_query``/``to_query``/``block_to_queries``) plus the
    engine's optional ``begin_block`` hook, which precomputes one ADC table
    per query of the block so every subsequent frontier gather is pure
    fancy-indexing over the code matrix.
    """

    def __init__(self, base: DistanceComputer, pq: ProductQuantizer | None = None):
        self.base = base
        if pq is None:
            pq = ProductQuantizer(m=self._default_m(base.dim),
                                  metric=base.metric)
        self.pq = pq
        if not self.pq.is_fitted:
            self.pq.fit(np.asarray(base.data))
        # ``codes`` is the live ``[:size]`` view of ``_rows``, the
        # capacity-doubling array :meth:`sync` appends into.
        self._rows = self.codes = self.pq.encode(np.asarray(base.data))
        self.ndc = 0  # cheap ADC scorings (m uint8 lookups each)
        # The open block's tables, (B * m * ks,), and the sequential path's
        # (m, ks) one: per thread, because concurrent readers share this
        # computer and each opens its own block.
        self._open = threading.local()

    @staticmethod
    def _default_m(dim: int) -> int:
        for m in (8, 6, 4, 3, 2, 1):
            if dim % m == 0:
                return m
        return 1

    # -- protocol surface ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def metric(self):
        return self.base.metric

    @property
    def code_bytes(self) -> int:
        return self.codes.nbytes

    def reset_ndc(self) -> int:
        previous = self.ndc
        self.ndc = 0
        return previous

    def prepare_query(self, query: np.ndarray) -> np.ndarray:
        return self.base.prepare_query(query)

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        return self.base.prepare_queries(queries)

    # -- code maintenance ----------------------------------------------------

    def sync(self) -> int:
        """Encode base rows appended since the last sync; returns new count.

        Incremental re-encode on insert: ``DistanceComputer.append`` lands
        the raw row *before* the graph publishes the node id (HNSW inserts
        data first), so syncing at block/search start guarantees every id a
        pinned view can surface has a code.  Amortised O(new rows): the
        codes grow by capacity doubling, never by copying the matrix per
        insert.
        """
        have = self.codes.shape[0]
        total = self.base.size
        if total <= have:
            return 0
        fresh = self.pq.encode(np.asarray(self.base.data[have:total]))
        self._rows = with_capacity(self._rows, have, total)
        self._rows[have:total] = fresh
        self.codes = self._rows[:total]
        return total - have

    # -- block scoring (batch engine) ----------------------------------------

    def begin_block(self, qmat: np.ndarray) -> None:
        """Engine hook: precompute the block's per-query ADC tables."""
        self.sync()
        self._open.flat_tables = np.ascontiguousarray(
            self.pq.adc_tables(qmat)).reshape(-1)

    def native_scorer(self, queries: np.ndarray):
        """The block opened by :meth:`begin_block` as a bound native ADC
        scorer (see :meth:`ProductQuantizer.native_scorer`): the code
        matrix's spec and that block's lookup tables, one per row of
        ``queries``."""
        tables = getattr(self._open, "flat_tables", None)
        shape = (queries.shape[0], self.pq.m, self.pq.ks)
        if (type(self) is not ADCComputer or tables is None
                or tables.size != shape[0] * shape[1] * shape[2]):
            return None
        return self.pq.native_scorer(self.codes, tables.reshape(shape))

    def block_to_queries(self, ids: np.ndarray, queries: np.ndarray,
                         owners: np.ndarray) -> np.ndarray:
        """ADC scores of code rows ``ids[i]`` against query ``owners[i]``.

        Requires :meth:`begin_block` for the current query matrix (the
        engine calls it once per block).  One gather of the code rows, one
        ``take`` of their table entries from the block's flat table stack,
        then a running sum over the subspaces — the order
        :meth:`ProductQuantizer.adc_distances` and ``_beam.c`` sum in.
        """
        ids = np.asarray(ids, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        if ids.size and int(ids.max()) >= self.codes.shape[0]:
            self.sync()  # id published after begin_block's sync
        self.ndc += ids.shape[0]
        m, ks = self.pq.m, self.pq.ks
        entries = ((owners * (m * ks))[:, None] + np.arange(0, m * ks, ks)
                   + self.codes[ids])
        return self._open.flat_tables.take(entries).cumsum(axis=1)[:, -1]

    # -- sequential scoring --------------------------------------------------

    def begin_query(self, q: np.ndarray) -> np.ndarray:
        """Prepare the single-query ADC table (sequential counterpart)."""
        self.sync()
        table = self._open.table = self.pq.adc_table(q)
        return table

    def to_query(self, ids: np.ndarray, query: np.ndarray) -> np.ndarray:
        """ADC scores against the table prepared by :meth:`begin_query`."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and int(ids.max()) >= self.codes.shape[0]:
            self.sync()
        self.ndc += ids.shape[0]
        return self.pq.adc_distances(self.codes[ids], self._open.table)

    def all_scores(self, table: np.ndarray) -> np.ndarray:
        """ADC scores of every code row against one table (fallback scan)."""
        self.ndc += self.codes.shape[0]
        return self.pq.adc_distances(self.codes, table)
