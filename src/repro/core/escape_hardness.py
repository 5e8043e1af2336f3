"""Escape Hardness (EH) — Definition 2 and Algorithm 2 of the paper.

For a query ``q`` and its nearest neighbors ranked ``1..K``:

    EH(q, u -> v) = the smallest K such that v is reachable from u inside
                    QNG_K(q)  (equivalently: the minimum over u->v paths of
                    the maximum NN-rank of any node on the path).

Corollary 1 gives EH its meaning: greedy search with search-list size
``L >= EH(q, u->v)`` starting from ``u`` is guaranteed to visit ``v`` —
so small EH between all pairs of a query's top-k NNs certifies the local
graph structure.

Two implementations are provided:

- :func:`escape_hardness` — the paper's incremental algorithm: add NNs in
  rank order, maintaining a transitive closure over bitset rows and updating
  it in O(K) row-ORs per insertion (new paths created by inserting node m
  must traverse m exactly once, so one row build plus one absorb pass per
  previously inserted node suffices — no full Floyd re-run needed).  A graph
  that describes itself to the native core (an ``AdjacencyStore``, a frozen
  CSR, an epoch view — not its bound ``neighbors``) runs it in ``_beam.c``;
  the Python loop here is the reference executor, and the two agree exactly
  (EH values are integer ranks).
- :func:`escape_hardness_bruteforce` — the definition, computed as a minimax
  (bottleneck) path problem via a Dijkstra variant; used to cross-validate
  the incremental algorithm in tests.

Since hard queries may have disconnected neighborhoods, the search is capped
at ``K_max`` ranks (the paper caps at a small multiple of k, e.g. 3k) and
unconnected pairs get ``EH = inf``.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np

from repro.graphs import native
from repro.utils.bitset import BitMatrix


@dataclasses.dataclass
class EscapeHardnessResult:
    """EH matrix of one query plus the context needed to act on it.

    ``eh[i, j]`` is EH from the (i+1)-th to the (j+1)-th NN (1-indexed ranks
    as values; diagonal is 0; ``inf`` where unreachable within ``K_max``).
    ``nn_ids`` holds the global ids of the top-``K_max`` NNs.
    """

    nn_ids: np.ndarray
    k: int
    K_max: int
    eh: np.ndarray

    def reachable(self, threshold: float | None = None) -> np.ndarray:
        """Boolean matrix: EH <= threshold (default: any finite EH)."""
        if threshold is None:
            threshold = float(self.K_max)
        return self.eh <= threshold

    def hardness_score(self) -> float:
        """Scalar summary: mean EH with inf clipped to 2*K_max.

        Used for ranking queries by hardness (Fig. 13(b) correlation); higher
        means the neighborhood graph is worse.
        """
        clipped = np.minimum(self.eh, 2.0 * self.K_max)
        return float(clipped.mean())

    def n_unreachable_pairs(self) -> int:
        """Ordered (u, v) pairs with infinite EH."""
        return int(np.isinf(self.eh).sum())


def _local_adjacency(neighbors_fn, nn_ids: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """Local out- and in-adjacency over the rank-ordered NN set."""
    local = {int(g): r for r, g in enumerate(nn_ids)}
    if len(local) != len(nn_ids):
        raise ValueError("nn_ids contains duplicates")
    out: list[list[int]] = []
    for g in nn_ids:
        row = []
        for v in neighbors_fn(int(g)):
            r = local.get(int(v))
            if r is not None:
                row.append(r)
        out.append(row)
    incoming: list[list[int]] = [[] for _ in nn_ids]
    for u, row in enumerate(out):
        for v in row:
            incoming[v].append(u)
    return out, incoming


def escape_hardness(
    neighbors_fn,
    nn_ids: np.ndarray,
    k: int,
) -> EscapeHardnessResult:
    """Incremental EH computation (paper Algorithm 2).

    Parameters
    ----------
    neighbors_fn:
        ``global_id -> np.ndarray`` out-neighbors in the full graph index:
        the graph object itself (native executor when it has a
        ``native_graph``) or any plain callable (reference executor).
    nn_ids:
        Top-``K_max`` NN ids of the query, ascending by distance; ``K_max``
        is implied by its length.
    k:
        The EH matrix covers the top-``k`` NNs (``k <= len(nn_ids)``).
    """
    nn_ids = np.ascontiguousarray(nn_ids, dtype=np.int64)
    K_max = nn_ids.shape[0]
    if not 0 < k <= K_max:
        raise ValueError(f"k={k} must be in [1, len(nn_ids)={K_max}]")
    if native.enabled() and (
            graph := native.spec(neighbors_fn, "native_graph")) is not None:
        eh = native.escape_hardness(graph, nn_ids, k)
        if eh is not None:
            return EscapeHardnessResult(nn_ids=nn_ids, k=k, K_max=K_max,
                                        eh=eh)

    out, incoming = _local_adjacency(neighbors_fn, nn_ids)
    closure = BitMatrix(K_max)
    eh = np.full((k, k), np.inf)
    np.fill_diagonal(eh, 0.0)
    k_mask = (1 << k) - 1
    pending = k * k - k

    for r in range(K_max):
        rank_value = float(r + 1)
        # Build the new node's reach row: itself plus everything its present
        # out-neighbors already reach (paths from r use r only as the start).
        row = 1 << r
        for b in out[r]:
            if b < r:
                row |= closure.rows[b]
        closure.rows[r] = row
        # Present nodes that reach an in-neighbor of r now also reach
        # everything r reaches; any genuinely new path threads r once.
        in_bits = 0
        for a in incoming[r]:
            if a < r:
                in_bits |= 1 << a
        in_bits |= 1 << r  # direct edges u -> r count too
        for u in range(r + 1):
            reaches_r = (u == r) or bool(closure.rows[u] & in_bits)
            if not reaches_r:
                continue
            if u != r:
                merged = closure.rows[u] | row
                if merged == closure.rows[u]:
                    continue
                new_bits = merged & ~closure.rows[u]
                closure.rows[u] = merged
            else:
                new_bits = row & ~(1 << r)
            if u >= k:
                continue
            fresh = new_bits & k_mask
            while fresh:
                low = fresh & -fresh
                v = low.bit_length() - 1
                if np.isinf(eh[u, v]):
                    eh[u, v] = rank_value
                    pending -= 1
                fresh ^= low
        if pending == 0:
            break

    return EscapeHardnessResult(nn_ids=nn_ids, k=k, K_max=K_max, eh=eh)


def escape_hardness_bruteforce(
    neighbors_fn,
    nn_ids: np.ndarray,
    k: int,
) -> EscapeHardnessResult:
    """EH straight from the definition, as a minimax-path computation.

    The smallest K with v reachable from u in QNG_K equals the minimum over
    u->v paths of the maximum 1-indexed rank on the path (endpoints
    included) — a bottleneck shortest path solved per source with a Dijkstra
    variant.  O(k * K_max * degree * log) — fine at test scale, and entirely
    independent of the incremental algorithm, so it serves as its oracle.
    """
    nn_ids = np.asarray(nn_ids, dtype=np.int64)
    K_max = nn_ids.shape[0]
    if not 0 < k <= K_max:
        raise ValueError(f"k={k} must be in [1, len(nn_ids)={K_max}]")
    out, _ = _local_adjacency(neighbors_fn, nn_ids)
    eh = np.full((k, k), np.inf)
    np.fill_diagonal(eh, 0.0)
    for src in range(k):
        best = [np.inf] * K_max
        best[src] = float(src + 1)
        heap = [(best[src], src)]
        while heap:
            cost, u = heapq.heappop(heap)
            if cost > best[u]:
                continue
            for v in out[u]:
                new_cost = max(cost, float(v + 1))
                if new_cost < best[v]:
                    best[v] = new_cost
                    heapq.heappush(heap, (new_cost, v))
        for dst in range(k):
            if dst != src:
                eh[src, dst] = best[dst]
    return EscapeHardnessResult(nn_ids=nn_ids, k=k, K_max=K_max, eh=eh)


def reachability_matrix(eh_result: EscapeHardnessResult,
                        threshold: float | None = None) -> np.ndarray:
    """The ε-reachable matrix S of Definition 3 (True where EH <= threshold)."""
    return eh_result.reachable(threshold)
