"""NGFix — Neighboring Graph Defects Fixing (Sec. 5.3, Algorithm 3).

Given one historical query's top-k NNs and their Escape Hardness matrix,
NGFix walks candidate edges between NN pairs in ascending length (Kruskal /
minimum-spanning-tree order) and adds any edge whose endpoints are not yet
mutually ε-reachable, then updates the reachability closure: connecting u and
v makes every (a, b) with a→u and v→b reachable.  Each node has an *extra*
out-degree budget; when exceeded, the extra edge with the lowest stored EH is
evicted first (low EH = the traversal it fixed was easy anyway).

Theorem 4: at most ``2 (k - 1)`` directed edges are added per query — each
undirected addition merges two mutual-reachability classes, so the process is
Kruskal's algorithm on those classes.

Also provided: the two "simple solutions" of Fig. 7 used as ablation
baselines in Fig. 13(c) — overlaying an exact RNG over the neighborhood
(:func:`rng_overlay_fix`) and random edge insertion until reachable
(:func:`random_connect_fix`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.escape_hardness import EscapeHardnessResult
from repro.distances import DistanceComputer, pairwise_distances
from repro.graphs.adjacency import AdjacencyStore
from repro.graphs.pruning import rng_prune
from repro.utils.rng_utils import ensure_rng


@dataclasses.dataclass
class FixOutcome:
    """What one fixing pass did for one query."""

    edges_added: list[tuple[int, int]]
    edges_evicted: list[tuple[int, int]]
    fully_reachable: bool


def _reach_rows(S: np.ndarray) -> list[int]:
    """The boolean ε-reachable matrix S (Definition 3) as one int bit row
    per NN — bit ``j`` of row ``i`` set iff ``i`` reaches ``j`` — with the
    diagonal set."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                           "little") | 1 << i for i, row in enumerate(S)]


def _absorb(rows: list[int], a: int, b: int) -> None:
    """Closure update after linking a -> b (Algorithm 3 lines 17-19):
    anything reaching a now reaches anything b reaches."""
    reach_b, bit_a = rows[b], 1 << a
    for x, row in enumerate(rows):
        if row & bit_a:
            rows[x] = row | reach_b


def _finite_eh(value: float, K_max: int) -> float:
    """Storable EH tag: infinite measured EH is clipped to 2*K_max.

    The paper stores EH in 16 bits per extra edge; edges fixing an
    unreachable pair are the most valuable finite-tag edges.  (The literal
    ``inf`` tag is reserved for RFix navigation edges, which are never
    evicted.)
    """
    return float(min(value, 2.0 * K_max))


def enforce_extra_budget(
    adjacency: AdjacencyStore,
    dc: DistanceComputer,
    u: int,
    max_extra_degree: int,
    strategy: str = "eh",
    rng: np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Evict extra edges of ``u`` until the budget holds; returns evictions.

    Strategies (the Fig. 14 ablation):

    - ``"eh"``     — paper default: evict lowest-EH extra edges.
    - ``"random"`` — evict uniformly at random.
    - ``"mrng"``   — re-prune extra edges with the RNG occlusion rule, which
      preferentially drops *long* edges; the paper shows this is the worst
      choice because long edges are exactly what hard queries need.
    """
    evicted: list[tuple[int, int]] = []
    over = adjacency.extra_degree(u) - max_extra_degree
    if over <= 0:
        return evicted
    if strategy == "eh":
        for _ in range(over):
            hit = adjacency.evict_lowest_eh(u)
            if hit is None:
                break
            evicted.append((u, hit[0]))
    elif strategy == "random":
        rng = ensure_rng(rng)
        extras = [v for v, eh in adjacency.extra_neighbors(u).items()
                  if eh != float("inf")]
        picks = rng.choice(len(extras), size=min(over, len(extras)), replace=False)
        for j in picks:
            adjacency.remove_extra_edge(u, extras[int(j)])
            evicted.append((u, extras[int(j)]))
    elif strategy == "mrng":
        extra = adjacency.extra_neighbors(u)
        protected = [v for v, eh in extra.items() if eh == float("inf")]
        prunable = [v for v, eh in extra.items() if eh != float("inf")]
        budget = max(max_extra_degree - len(protected), 0)
        keep = set(rng_prune(dc, u, prunable, budget))
        for v in prunable:
            if v not in keep:
                adjacency.remove_extra_edge(u, v)
                evicted.append((u, v))
    else:
        raise ValueError(f"unknown eviction strategy {strategy!r}")
    return evicted


def ngfix_query(
    adjacency: AdjacencyStore,
    dc: DistanceComputer,
    eh_result: EscapeHardnessResult,
    eh_threshold: float | None = None,
    max_extra_degree: int = 12,
    evict_strategy: str = "eh",
    rng: np.random.Generator | None = None,
) -> FixOutcome:
    """Run Algorithm 3 for one query.

    ``eh_result`` carries the query's NN ids and EH matrix; edges are added
    directly into ``adjacency`` as *extra* edges tagged with the EH value
    they fixed.
    """
    k = eh_result.k
    nn = eh_result.nn_ids[:k]
    rows = _reach_rows(eh_result.reachable(eh_threshold))
    full = (1 << k) - 1
    added: list[tuple[int, int]] = []
    evicted: list[tuple[int, int]] = []
    if all(row == full for row in rows):
        return FixOutcome(added, evicted, True)

    # Candidate edges: all NN pairs, ascending by distance (Kruskal order).
    dist = pairwise_distances(dc.data[nn], dc.data[nn], dc.metric)
    iu, ju = np.triu_indices(k, k=1)
    order = np.argsort(dist[iu, ju], kind="stable")

    for idx in order:
        i, j = int(iu[idx]), int(ju[idx])
        if rows[i] >> j & 1 and rows[j] >> i & 1:
            continue
        for a, b in ((i, j), (j, i)):
            if rows[a] >> b & 1:
                continue
            u, v = int(nn[a]), int(nn[b])
            tag = _finite_eh(eh_result.eh[a, b], eh_result.K_max)
            if adjacency.add_extra_edge(u, v, tag):
                added.append((u, v))
                evicted.extend(enforce_extra_budget(
                    adjacency, dc, u, max_extra_degree, evict_strategy, rng))
            _absorb(rows, a, b)
        if all(row == full for row in rows):
            break

    return FixOutcome(added, evicted, all(row == full for row in rows))


def rng_overlay_fix(
    adjacency: AdjacencyStore,
    dc: DistanceComputer,
    nn_ids: np.ndarray,
    max_extra_degree: int = 12,
) -> FixOutcome:
    """Fig. 7(a) baseline: rebuild an RNG over the query's NNs and overlay it.

    Produces high-quality local neighbors but many more edges than NGFix
    (the paper measures ~1.37x the out-degree), because it re-links every NN
    regardless of whether the existing graph already serves it.
    """
    nn = np.asarray(nn_ids, dtype=np.int64)
    dist = pairwise_distances(dc.data[nn], dc.data[nn], dc.metric)
    added: list[tuple[int, int]] = []
    k = nn.shape[0]
    for a in range(k):
        order = np.argsort(dist[a], kind="stable")
        kept: list[int] = []
        for b in order:
            b = int(b)
            if b == a:
                continue
            if any(dist[s, b] < dist[a, b] for s in kept):
                continue
            kept.append(b)
        for b in kept:
            u, v = int(nn[a]), int(nn[b])
            if adjacency.extra_degree(u) >= max_extra_degree:
                break
            if adjacency.add_extra_edge(u, v, _finite_eh(float("inf"), k)):
                added.append((u, v))
    return FixOutcome(added, [], True)


def random_connect_fix(
    adjacency: AdjacencyStore,
    dc: DistanceComputer,
    eh_result: EscapeHardnessResult,
    eh_threshold: float | None = None,
    max_extra_degree: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> FixOutcome:
    """Fig. 7(b) baseline: random pairs until everything is ε-reachable.

    Fixes reachability but with disordered connections — nodes do not get
    their actual neighbors, which the paper shows performs worst.
    """
    rng = ensure_rng(seed)
    k = eh_result.k
    nn = eh_result.nn_ids[:k]
    S = eh_result.reachable(eh_threshold) | np.eye(k, dtype=bool)
    rows = _reach_rows(S)
    added: list[tuple[int, int]] = []
    missing = np.argwhere(~S)
    rng.shuffle(missing)
    for a, b in missing:
        a, b = int(a), int(b)
        if rows[a] >> b & 1:
            continue
        u, v = int(nn[a]), int(nn[b])
        if adjacency.extra_degree(u) >= max_extra_degree:
            continue
        if adjacency.add_extra_edge(u, v, _finite_eh(eh_result.eh[a, b], eh_result.K_max)):
            added.append((u, v))
        _absorb(rows, a, b)
    return FixOutcome(added, [], all(row == (1 << k) - 1 for row in rows))
