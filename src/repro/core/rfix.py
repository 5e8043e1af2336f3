"""RFix — Reachability Fixing (Sec. 5.4, Algorithm 4).

NGFix assumes greedy search reaches the query's vicinity (phase 2).  For the
minority of historical queries where it does not, the search stalls at some
point ``p̂`` (the approximate NN it returned) that lacks outgoing edges
toward the query: index builders pick link candidates from a small greedy
result set, which can cluster in one direction and miss whole regions.

RFix expands ``p̂``'s candidate neighbor set with every point closer to the
query than ``p̂`` (gathered by a wider greedy search instead of brute force),
applies the RNG angle rule so the new edges spread across directions, and
installs them with an *infinite* EH tag so the NGFix eviction never removes
these navigation-critical edges.  The fix is repeated until the search
reaches the vicinity or the degree budget is exhausted.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distances import DistanceComputer
from repro.graphs.adjacency import AdjacencyStore, EH_INFINITE
from repro.graphs.pruning import rng_prune
from repro.graphs.search import VisitedTable, greedy_search


@dataclasses.dataclass
class RFixOutcome:
    """Result of RFix for one query."""

    edges_added: list[tuple[int, int]]
    rounds: int
    reached_vicinity: bool
    needed_fix: bool


def search_reaches_vicinity(found_distance: float, kth_nn_distance: float,
                            tolerance: float = 1e-9) -> bool:
    """The paper's phase-2 criterion: the found NN is at least as close as
    the true k-th NN, i.e. the search arrived inside the query's top-k ball."""
    return found_distance <= kth_nn_distance + tolerance


def rfix_query(
    adjacency: AdjacencyStore,
    dc: DistanceComputer,
    query: np.ndarray,
    nn_ids: np.ndarray,
    nn_distances: np.ndarray,
    entry_point: int,
    search_ef: int,
    expand_ef: int | None = None,
    max_extra_degree: int = 12,
    max_rounds: int = 5,
    visited: VisitedTable | None = None,
) -> RFixOutcome:
    """Run Algorithm 4 for one historical query.

    Parameters
    ----------
    query:
        The historical query vector.
    nn_ids, nn_distances:
        The query's (exact or approximate) top-k neighbor ids and distances
        from preprocessing; the k-th distance defines "vicinity".
    entry_point:
        Fixed entry (the base-data medoid, per the paper).
    search_ef:
        Search list size whose success RFix must guarantee.
    expand_ef:
        Wider beam used to collect the extended candidate set (defaults to
        ``4 * search_ef``).
    """
    nn_ids = np.asarray(nn_ids, dtype=np.int64)
    k = nn_ids.shape[0]
    kth_distance = float(np.asarray(nn_distances)[k - 1])
    if expand_ef is None:
        expand_ef = 4 * search_ef
    q = dc.prepare_query(query)
    added: list[tuple[int, int]] = []

    rounds = 0
    needed = False
    while rounds < max_rounds:
        probe = greedy_search(dc, adjacency, [entry_point], q,
                              k=1, ef=search_ef, visited=visited, prepared=True)
        anchor = int(probe.ids[0])
        anchor_distance = float(probe.distances[0])
        if search_reaches_vicinity(anchor_distance, kth_distance):
            return RFixOutcome(added, rounds, True, needed)
        needed = True
        rounds += 1

        # Extended candidate set: every point strictly closer to the query
        # than the anchor, gathered by a wider beam (the brute-force
        # replacement described in the paper) plus the known NNs themselves.
        wide = greedy_search(dc, adjacency, [entry_point], q,
                             k=expand_ef, ef=expand_ef, visited=visited,
                             collect_visited=True, prepared=True)
        closer = wide.visited_ids[wide.visited_distances < anchor_distance]
        pool = np.unique(np.concatenate([closer, nn_ids]))
        pool = pool[pool != anchor]
        if pool.size == 0:
            break

        budget = max_extra_degree - adjacency.extra_degree(anchor)
        if budget <= 0:
            break
        # RNG rule keeps the new edges >60 degrees apart, dispersing them in
        # different directions (Algorithm 4 lines 5-9).
        selected = rng_prune(dc, anchor, pool, budget)
        new_this_round = 0
        for v in selected:
            if adjacency.add_extra_edge(anchor, v, EH_INFINITE):
                added.append((anchor, v))
                new_this_round += 1
        if new_this_round == 0:
            break

    probe = greedy_search(dc, adjacency, [entry_point], q,
                          k=1, ef=search_ef, visited=visited, prepared=True)
    reached = search_reaches_vicinity(float(probe.distances[0]), kth_distance)
    return RFixOutcome(added, rounds, reached, needed)
