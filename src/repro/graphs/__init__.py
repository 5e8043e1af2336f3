"""Graph-index substrates: storage, search, pruning, and baseline indexes.

Everything the paper's evaluation depends on is implemented here from
scratch:

- :mod:`adjacency` — edge storage with separate *base* and *extra* edge sets
  (NGFix adds extra edges tagged with their Escape Hardness) and tombstones.
- :mod:`search` — the greedy/beam search of Algorithm 1 with NDC counting.
- :mod:`pruning` — RNG / MRNG / α / τ edge-selection rules shared by all
  builders, plus the EH-based and random pruning variants of Fig. 14.
- :mod:`hnsw`, :mod:`nsg`, :mod:`tau_mng`, :mod:`roargraph` — the paper's
  baselines (HNSW also serves as NGFix*'s default base graph).
- :mod:`exact` — exact RNG/MRNG/k-NN graphs at toy scale for theory checks.
"""

from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.csr import CSRGraphView
from repro.graphs.search import SearchResult, VisitedTable, greedy_search
from repro.graphs.base import GraphIndex, BruteForceIndex
from repro.graphs.pruning import (
    rng_prune,
    mrng_prune,
    alpha_prune,
    tau_prune,
    random_prune,
)
from repro.graphs.kgraph import brute_force_knn_graph, nn_descent_knn_graph
from repro.graphs.hnsw import HNSW
from repro.graphs.nsg import NSG
from repro.graphs.tau_mng import TauMNG
from repro.graphs.roargraph import RoarGraph
from repro.graphs.vamana import Vamana, RobustVamana
from repro.graphs.nsw import NSW
from repro.graphs.exact import exact_rng, exact_mrng, exact_knn_graph, delaunay_graph

__all__ = [
    "AdjacencyStore",
    "CSRGraphView",
    "SearchResult",
    "VisitedTable",
    "greedy_search",
    "GraphIndex",
    "BruteForceIndex",
    "rng_prune",
    "mrng_prune",
    "alpha_prune",
    "tau_prune",
    "random_prune",
    "brute_force_knn_graph",
    "nn_descent_knn_graph",
    "HNSW",
    "NSG",
    "TauMNG",
    "RoarGraph",
    "Vamana",
    "RobustVamana",
    "NSW",
    "exact_rng",
    "exact_mrng",
    "exact_knn_graph",
    "delaunay_graph",
]
