"""NGFix* orchestrator: detect-and-fix over a historical query stream.

``NGFixer`` wraps any :class:`~repro.graphs.base.GraphIndex` (the paper uses
HNSW's bottom layer) and, for each historical query:

1. **Preprocess** — obtain the query's top-``K_max`` NNs, either exactly
   (batched brute force) or approximately (a wider greedy search on the
   current graph; Sec. 5.1 — the paper shows quality is nearly identical and
   construction 2.35-9x faster than RoarGraph, which cannot use approximate
   ground truth).
2. **Measure** — compute the Escape Hardness matrix over the top-k NNs.
3. **NGFix** — add MST-ordered extra edges until all NN pairs are mutually
   ε-reachable (Algorithm 3).
4. **RFix** — if greedy search from the medoid cannot even reach the query's
   vicinity, expand the stalling point's neighbors (Algorithm 4).

The paper applies the fixing pass twice with different ``k`` (a large k for
high-recall regimes, then a small k for top-10 retrieval); ``FixConfig.rounds``
expresses that schedule.  The fixer itself satisfies the index protocol
(``search`` + ``dc``), always entering at the base-data medoid per Theorem 5.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from repro.core.escape_hardness import escape_hardness
from repro.core.ngfix import FixOutcome, ngfix_query
from repro.core.rfix import RFixOutcome, rfix_query
from repro.evalx.ground_truth import compute_ground_truth
from repro.graphs.base import GraphIndex, live_graph_engine
from repro.graphs.search import BatchSearchEngine, SearchResult
from repro.utils.rng_utils import ensure_rng
from repro.utils.validation import check_matrix


@dataclasses.dataclass
class FixConfig:
    """Knobs of NGFix* (paper Sec. 6.1 / 6.6 parameters, scaled).

    ``k`` is the NN count whose pairwise reachability each round certifies;
    ``hard_ratio`` bounds the EH search at ``K_max = ceil(hard_ratio * k)``
    (the paper caps at a small multiple of k, recommending 1.2-2 for large k,
    3 for small); ``eh_threshold`` is the ε of ε-reachability (default:
    ``K_max``, the paper's "very few edges exceed it" setting);
    ``max_extra_degree`` is the per-node extra-edge budget.
    """

    k: int = 10
    hard_ratio: float = 3.0
    eh_threshold: float | None = None
    max_extra_degree: int = 12
    evict_strategy: str = "eh"
    preprocess: str = "exact"  # "exact" | "approx"
    approx_ef: int = 120
    rounds: tuple[int, ...] | None = None  # defaults to (k,)
    rfix: bool = True
    rfix_search_ef: int | None = None  # defaults to k
    rfix_expand_ef: int | None = None  # defaults to 4 * search_ef
    rfix_max_rounds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.hard_ratio < 1.0:
            raise ValueError(f"hard_ratio must be >= 1, got {self.hard_ratio}")
        if self.preprocess not in ("exact", "approx"):
            raise ValueError(f"preprocess must be 'exact' or 'approx', got {self.preprocess!r}")
        # A JSON round trip hands the schedule back as a list.
        self.rounds = ((self.k,) if self.rounds is None
                       else tuple(self.rounds))
        if any(r <= 0 for r in self.rounds):
            raise ValueError(f"rounds must be positive, got {self.rounds}")

    def k_max(self, k: int | None = None) -> int:
        """EH rank cap for a round with the given k."""
        return int(math.ceil(self.hard_ratio * (k if k is not None else self.k)))


@dataclasses.dataclass
class QueryFixRecord:
    """Per-query diagnostics collected during fitting (feeds Fig. 13)."""

    query_index: int
    round_k: int
    hardness: float
    unreachable_pairs: int
    edges_added: int
    edges_evicted: int
    rfix_needed: bool
    rfix_edges: int


class NGFixer:
    """Dynamically detect and fix graph defects around (historical) queries.

    ``records`` holds the last :meth:`fit`'s per-query records (Fig. 13);
    the totals over every fit and online :meth:`fix_query` are running
    counts (``queries_fixed``, ``edges_added`` — NGFix and RFix edges —
    ``rfix_edges`` and ``edges_evicted``), so online fixing holds no
    history.
    """

    def __init__(self, index: GraphIndex, config: FixConfig | None = None):
        self.index = index
        self.config = config or FixConfig()
        self.records: list[QueryFixRecord] = []
        self.queries_fixed = 0
        self.edges_added = 0
        self.rfix_edges = 0
        self.edges_evicted = 0
        self.preprocess_seconds = 0.0
        self.fix_seconds = 0.0
        # Distance computations spent obtaining per-query ground truth; the
        # scale-independent cost the paper's construction comparison turns on
        # (exact = |Q| * n, approximate = graph-search work).
        self.preprocess_ndc = 0
        self._rng = ensure_rng(self.config.seed)
        self._batch_engine: BatchSearchEngine | None = None

    # -- index protocol -----------------------------------------------------

    @property
    def dc(self):
        return self.index.dc

    @property
    def adjacency(self):
        return self.index.adjacency

    @property
    def entry(self) -> int:
        """The index's navigating node, where every search and RFix starts."""
        return self.index.medoid()

    def entry_points(self, query: np.ndarray) -> list[int]:
        return [self.entry]

    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> SearchResult:
        """Greedy search from the medoid over the fixed graph: a block of
        one."""
        return self.search_batch(np.asarray(query, dtype=np.float32)[None],
                                 k, ef)[0]

    def search_batch(self, queries: np.ndarray, k: int, ef: int | None = None,
                     batch_size: int = 32) -> list[SearchResult]:
        """Batched medoid-entry search over the fixed graph."""
        if ef is None:
            ef = max(k, 10)
        self._batch_engine = live_graph_engine(self._batch_engine, self,
                                               batch_size)
        return self._batch_engine.search_batch(queries, k, ef)

    def stats(self) -> dict:
        """Index statistics plus fixing totals."""
        out = self.index.stats()
        out.update(
            queries_fixed=self.queries_fixed,
            total_edges_added=self.edges_added,
            rfix_edges=self.rfix_edges,
            edges_evicted=self.edges_evicted,
            preprocess_seconds=self.preprocess_seconds,
            fix_seconds=self.fix_seconds,
        )
        return out

    # -- preprocessing (Sec. 5.1) ---------------------------------------------

    def _n_live(self, n_neighbors: int) -> int:
        """``n_neighbors`` capped at the rows compaction has not removed."""
        return min(n_neighbors, self.dc.size - len(self.adjacency.removed))

    def _preprocess_exact(self, queries: np.ndarray, n_neighbors: int):
        n_neighbors = self._n_live(n_neighbors)
        removed = self.adjacency.removed
        if removed:
            # Compacted rows linger in the data matrix; brute force over
            # them would hand repair ids whose nodes no longer exist, and
            # the resulting extra edges would resurrect them.  Mask them
            # out and map the ground truth back to global ids.
            alive = np.setdiff1d(
                np.arange(self.dc.size, dtype=np.int64),
                np.fromiter(removed, dtype=np.int64, count=len(removed)))
            gt = compute_ground_truth(self.dc.data[alive], queries,
                                      n_neighbors, self.dc.metric)
            self.preprocess_ndc += queries.shape[0] * alive.shape[0]
            return alive[gt.ids], gt.distances
        gt = compute_ground_truth(self.dc.data, queries, n_neighbors,
                                  self.dc.metric)
        self.preprocess_ndc += queries.shape[0] * self.dc.size
        return gt.ids, gt.distances

    def _preprocess_approx(self, queries: np.ndarray, n_neighbors: int):
        """Approximate NNs from a wider greedy search on the current graph:
        one block of searches, a row that found too few topped up exactly."""
        n_neighbors = self._n_live(n_neighbors)
        ids = np.empty((queries.shape[0], n_neighbors), dtype=np.int64)
        dists = np.empty((queries.shape[0], n_neighbors), dtype=np.float64)
        results = self.search_batch(queries, k=n_neighbors,
                                    ef=max(self.config.approx_ef, n_neighbors))
        # Each row's own scorings: ``dc.ndc`` also counts other readers'.
        self.preprocess_ndc += sum(r.ndc for r in results)
        for j, result in enumerate(results):
            if len(result.ids) < n_neighbors:
                # Degenerate graph region: top up with exact search.
                exact_ids, exact_d = self._preprocess_exact(
                    queries[j:j + 1], n_neighbors)
                ids[j], dists[j] = exact_ids[0], exact_d[0]
            else:
                ids[j], dists[j] = result.ids, result.distances
        return ids, dists

    # -- fixing ---------------------------------------------------------------

    def _fix_one(self, query_index: int, query: np.ndarray, nn_ids: np.ndarray,
                 nn_distances: np.ndarray, round_k: int) -> QueryFixRecord:
        config = self.config
        # Preprocessing hands back every live row when there are fewer
        # than K_max, so k may exceed what there is.
        nn_ids = nn_ids[:config.k_max(round_k)]
        eh = escape_hardness(self.adjacency, nn_ids,
                             min(round_k, nn_ids.shape[0]))
        outcome: FixOutcome = ngfix_query(
            self.adjacency, self.dc, eh,
            eh_threshold=config.eh_threshold,
            max_extra_degree=config.max_extra_degree,
            evict_strategy=config.evict_strategy,
            rng=self._rng,
        )
        rfix_out = RFixOutcome([], 0, True, False)
        if config.rfix:
            search_ef = config.rfix_search_ef or round_k
            rfix_out = rfix_query(
                self.adjacency, self.dc, query,
                nn_ids[:round_k], nn_distances[:round_k],
                entry_point=self.entry,
                search_ef=search_ef,
                expand_ef=config.rfix_expand_ef,
                max_extra_degree=config.max_extra_degree,
                max_rounds=config.rfix_max_rounds,
                visited=self.index._visited,
            )
        return self._tally(QueryFixRecord(
            query_index=query_index,
            round_k=round_k,
            hardness=eh.hardness_score(),
            unreachable_pairs=eh.n_unreachable_pairs(),
            edges_added=len(outcome.edges_added),
            edges_evicted=len(outcome.edges_evicted),
            rfix_needed=rfix_out.needed_fix,
            rfix_edges=len(rfix_out.edges_added),
        ))

    def _tally(self, record: QueryFixRecord) -> QueryFixRecord:
        """Add ``record``'s edges to the running totals."""
        self.edges_added += record.edges_added + record.rfix_edges
        self.rfix_edges += record.rfix_edges
        self.edges_evicted += record.edges_evicted
        return record

    def fit(self, queries: np.ndarray, use_ngfix: bool = True) -> "NGFixer":
        """Fix the graph for a batch of historical queries (all rounds).

        Per round, the whole batch is preprocessed at once (exact ground
        truth spreads its blocks over the process's thread pool), then the
        queries are fixed one after the other in order.  :attr:`records`
        becomes this fit's records.
        """
        queries = check_matrix(queries, "queries")
        self.records = []
        for round_k in self.config.rounds:
            n_neighbors = self.config.k_max(round_k)
            start = time.perf_counter()
            if self.config.preprocess == "exact":
                ids, dists = self._preprocess_exact(queries, n_neighbors)
            else:
                ids, dists = self._preprocess_approx(queries, n_neighbors)
            self.preprocess_seconds += time.perf_counter() - start

            start = time.perf_counter()
            fix = self._fix_one if use_ngfix else self._rfix_only
            for i, query in enumerate(queries):
                self.records.append(fix(i, query, ids[i], dists[i], round_k))
            self.fix_seconds += time.perf_counter() - start
        self.queries_fixed += queries.shape[0]
        return self

    def _rfix_only(self, query_index: int, query: np.ndarray, nn_ids,
                   nn_distances, round_k: int) -> QueryFixRecord:
        """RFix alone (the ablations' mode): no EH, no NGFix edges."""
        search_ef = self.config.rfix_search_ef or round_k
        rfix_out = rfix_query(
            self.adjacency, self.dc, query, nn_ids[:round_k],
            nn_distances[:round_k], entry_point=self.entry,
            search_ef=search_ef, expand_ef=self.config.rfix_expand_ef,
            max_extra_degree=self.config.max_extra_degree,
            max_rounds=self.config.rfix_max_rounds,
            visited=self.index._visited,
        )
        return self._tally(QueryFixRecord(
            query_index=query_index, round_k=round_k, hardness=0.0,
            unreachable_pairs=0, edges_added=0, edges_evicted=0,
            rfix_needed=rfix_out.needed_fix, rfix_edges=len(rfix_out.edges_added),
        ))

    def fix_query(self, query: np.ndarray) -> list[QueryFixRecord]:
        """Online single-query fixing (the production mode of the paper).

        Uses the configured preprocessing and runs every configured round.
        ``FixConfig.preprocess`` defaults to ``"exact"`` (a brute-force pass
        over the base per query); the ``FixConfig`` a
        :class:`~repro.config.StoreConfig` coerces by default uses
        ``"approx"``, which is what makes a store's online fixing cheap.
        Returns the query's records, one per round; they go into the
        running totals, not into :attr:`records`.
        """
        query = np.asarray(query, dtype=np.float32)
        records = []
        for round_k in self.config.rounds:
            n_neighbors = self.config.k_max(round_k)
            start = time.perf_counter()
            if self.config.preprocess == "exact":
                ids, dists = self._preprocess_exact(query[None, :], n_neighbors)
            else:
                ids, dists = self._preprocess_approx(query[None, :], n_neighbors)
            self.preprocess_seconds += time.perf_counter() - start
            start = time.perf_counter()
            records.append(self._fix_one(-1, query, ids[0], dists[0], round_k))
            self.fix_seconds += time.perf_counter() - start
        self.queries_fixed += 1
        return records
