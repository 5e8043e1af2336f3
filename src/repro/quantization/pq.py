"""Product Quantization (Jégou et al. 2011) from scratch.

Vectors are split into ``m`` contiguous subspaces; each subspace gets a
k-means codebook of ``ks`` centroids (ks <= 256, codes fit in uint8).  A
query builds an asymmetric-distance (ADC) table of query-to-centroid
distances per subspace once; any database code's approximate distance is
then ``m`` table lookups — the cheap scoring that quantized-graph hybrids
navigate with.

Supports the library's three comparison metrics: squared L2 sums subspace
squared distances; inner product (and cosine over pre-normalized data) sums
subspace dot products and negates.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric
from repro.quantization.kmeans import kmeans
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix, check_positive

_ENCODE_ROWS = 1024  # encode's row block: 3 MB of distances at m=12, ks=64


class ProductQuantizer:
    """PQ codec with ADC scoring.

    Parameters
    ----------
    m:
        Number of subspaces (must divide the dimension at :meth:`fit`).
    ks:
        Centroids per subspace codebook (<= 256).
    """

    def __init__(self, m: int = 4, ks: int = 32,
                 metric: Metric | str = Metric.L2,
                 seed: int | np.random.Generator | None = 0):
        check_positive(m, "m")
        check_positive(ks, "ks")
        if ks > 256:
            raise ValueError(f"ks={ks} exceeds uint8 code range")
        self.m = m
        self.ks = ks
        self.metric = Metric.parse(metric)
        self._rng = ensure_rng(seed)
        self.codebooks: np.ndarray | None = None  # (m, ks, d_sub)
        self.dim: int | None = None
        self._native = (None, None)  # (codes, their spec): native_scorer()

    @property
    def is_fitted(self) -> bool:
        return self.codebooks is not None

    def _split(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], self.m, -1)

    def fit(self, data: np.ndarray) -> "ProductQuantizer":
        """Train one codebook per subspace on ``data``."""
        data = check_matrix(data, "data")
        if data.shape[1] % self.m != 0:
            raise ValueError(
                f"dimension {data.shape[1]} not divisible by m={self.m}")
        if data.shape[0] < self.ks:
            raise ValueError(f"need at least ks={self.ks} training vectors")
        self.dim = data.shape[1]
        sub = self._split(data)
        self.codebooks = np.stack([kmeans(sub[:, j], self.ks, seed=self._rng)[0]
                                   for j in range(self.m)])
        return self

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("ProductQuantizer must be fit() before use")

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize vectors to (n, m) uint8 codes."""
        self._require_fitted()
        data = check_matrix(data, "data")
        if data.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {data.shape[1]}")
        sub = self._split(data)[:, :, None, :]
        codes = np.empty((data.shape[0], self.m), dtype=np.uint8)
        for at in range(0, data.shape[0], _ENCODE_ROWS):
            block = sub[at:at + _ENCODE_ROWS]  # (rows, m, 1, d_sub)
            dist = np.zeros(block.shape[:2] + (self.ks,), np.float32)
            for c in range(block.shape[3]):  # left to right, as NumPy sums
                diff = block[..., c] - self.codebooks[..., c]
                dist += np.square(diff, out=diff)
            codes[at:at + _ENCODE_ROWS] = dist.argmin(axis=2)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_fitted()
        codes = np.asarray(codes, dtype=np.int64)
        parts = [self.codebooks[j][codes[:, j]] for j in range(self.m)]
        return np.concatenate(parts, axis=1)

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """Per-subspace query-to-centroid score table, shape (m, ks).

        Summing table rows over a code's entries yields the comparison
        distance (squared L2, or negated dot for IP/COSINE on normalized
        data).  The block of one of :meth:`adc_tables`, so a query's table
        is the same array whichever path built it.
        """
        self._require_fitted()
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise ValueError(f"expected query of dimension {self.dim}")
        return self.adc_tables(query[None])[0]

    def adc_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC tables for a block of prepared queries, shape (B, m, ks).

        One einsum per metric builds every query's per-subspace lookup
        table at once, which is what lets the batch engine amortize table
        construction over a whole block; row ``b`` is bit-identical to
        ``adc_table(queries[b])``.
        """
        self._require_fitted()
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"expected (B, {self.dim}) queries, got shape {queries.shape}")
        sub_q = queries.reshape(queries.shape[0], self.m, -1)  # (B, m, d_sub)
        if self.metric is Metric.L2:
            # (B, m, ks, d_sub) broadcast diff; small because d_sub = dim/m.
            diff = sub_q[:, :, None, :] - self.codebooks[None, :, :, :]
            table = np.einsum("bmkd,bmkd->bmk", diff, diff)
        else:
            table = -np.einsum("bmd,mkd->bmk", sub_q, self.codebooks)
        return table.astype(np.float64, copy=False)

    def adc_distances(self, codes: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Approximate distances of coded vectors to the table's query.

        Table entries are summed in subspace order (a running sum, not
        NumPy's pairwise reduction, which regroups past 8 terms): the
        order ``_beam.c`` and :meth:`ADCComputer.block_to_queries
        <repro.quantization.adc.ADCComputer.block_to_queries>` sum in, so
        all three give bit-identical distances on one table.
        """
        codes = np.asarray(codes, dtype=np.int64)
        return table[np.arange(self.m), codes].cumsum(axis=-1)[..., -1]

    def native_scorer(self, codes: np.ndarray, tables: np.ndarray):
        """ADC over ``codes`` bound to ``tables``, one ``(m, ks)`` lookup
        table per query: the pair ``(native.Scorer(ADC, codes), tables)``,
        the spec built once per code matrix.  None when the native kernel
        cannot stand in for :meth:`adc_distances`: a subclass, codes that
        are not a dense ``(n, m)`` uint8 matrix, tables of another shape
        (the spec's codes index this quantizer's ``ks``).  The kernel checks
        the tables' layout itself."""
        cached = self._native
        if cached[0] is not codes:
            from repro.graphs import native

            spec = (native.Scorer(native.ADC, codes)
                    if type(self) is ProductQuantizer
                    and native.dense(codes, np.uint8, 2)
                    and codes.shape[1] == self.m else None)
            cached = self._native = (codes, spec)  # one assignment
        if cached[1] is None or tables.shape[1:] != (self.m, self.ks):
            return None
        return cached[1], tables

    def quantization_error(self, data: np.ndarray) -> float:
        """Mean squared reconstruction error (diagnostic)."""
        approx = self.decode(self.encode(data))
        return float(((np.asarray(data, dtype=np.float32) - approx) ** 2)
                     .sum(axis=1).mean())
