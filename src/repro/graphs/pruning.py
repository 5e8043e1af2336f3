"""Edge-selection (pruning) rules shared by all graph builders.

All rules take a node ``u`` and a candidate list sorted ascending by distance
to ``u`` and return the retained neighbor ids (at most ``max_degree``):

- :func:`rng_prune` / :func:`mrng_prune` — the Relative Neighborhood Graph
  occlusion rule used by HNSW's heuristic and NSG: a candidate is kept only
  if no already-kept neighbor is closer to it than ``u`` is.  Geometrically
  this enforces a >60° angle between kept edges, the dispersion property RFix
  relies on (Sec. 5.4).
- :func:`alpha_prune` — Vamana/DiskANN's relaxation: occluders must be
  ``alpha``× closer, retaining longer detour edges for robustness.
- :func:`tau_prune` — the τ-MNG rule (Peng et al. 2023): an occluder only
  prunes when it is closer by a 3τ margin, preserving τ-monotonic paths.
- :func:`random_prune` / EH-aware eviction — the Fig. 14 ablation
  comparators for NGFix's extra-edge budget.
"""

from __future__ import annotations

import numpy as np

from repro.distances import DistanceComputer, Metric, pairwise_distances
from repro.graphs import native
from repro.utils.rng_utils import ensure_rng


# Candidate pools larger than this are truncated to the closest entries
# before pruning; occlusion rules essentially never keep candidates that far
# down the list, and the cap bounds the pairwise matrix below.
_POOL_CAP = 1024


def _occlusion_prune(dc: DistanceComputer, ids: np.ndarray,
                     margin: np.ndarray, max_degree: int) -> list[int]:
    """Generic occlusion rule: keep c unless some kept s occludes it.

    The reference executor of the rule (``repro_occlusion_prune`` in
    ``_beam.c`` is the native one; :func:`_prune` chooses).  ``ids`` are the
    candidates sorted ascending by their distance to ``u``; ``margin`` is
    each candidate's occlusion margin (that distance under the RNG rule).  All
    candidate-to-candidate distances are computed as one pairwise matrix
    (pool sizes are modest — see ``_POOL_CAP``) and compared against the
    margins in one shot; row ``i`` of that occlusion matrix is packed into a
    Python int with bit ``s`` set when candidate ``s`` would occlude ``i``,
    so the selection loop is one ``&`` against the kept-set bits per
    candidate instead of one NumPy call.
    """
    if ids.size == 0:
        return []
    rows = dc.data[ids]
    if dc.metric is Metric.L2:
        between = pairwise_distances(rows, rows, Metric.L2)
    else:  # stored COSINE rows are unit already: no second normalisation
        dots = rows @ rows.T
        between = -dots if dc.metric is Metric.INNER_PRODUCT else 1.0 - dots
    occluded_by = np.packbits(between.T < margin[:, None], axis=1,
                              bitorder="little")
    kept_bits = 0
    kept: list[int] = []
    for i, row in enumerate(occluded_by):
        if len(kept) >= max_degree:
            break
        if int.from_bytes(row.tobytes(), "little") & kept_bits:
            continue
        kept_bits |= 1 << i
        kept.append(int(ids[i]))
    return kept


def _prune(dc: DistanceComputer, ids: np.ndarray, margin: np.ndarray,
           max_degree: int) -> list[int]:
    """:func:`_occlusion_prune` on whichever executor can run it.

    The one place the rule's executor is chosen, by the contract of
    :func:`repro.graphs.search.native_search`: natively when the library is
    loaded and ``dc`` describes its rows (``native_rows``, looked up on its
    exact type), else — a proxy scorer, ``REPRO_NO_NATIVE=1``, an id the
    kernel refuses — the Python reference.  Same kept list up to
    float32 near-ties between a candidate distance and its margin.
    """
    if native.enabled() and ids.size:
        rows = native.spec(dc, "native_rows")
        if rows is not None:
            kept = native.occlusion_prune(*rows, ids, margin, max_degree)
            if kept is not None:
                return kept
    return _occlusion_prune(dc, ids, margin, max_degree)


def _sorted_candidates(
    dc: DistanceComputer, u: int, candidate_ids, distances=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique candidates other than ``u`` as ``(ids, distances to u)``,
    ascending by distance (ties by id) and capped at ``_POOL_CAP``."""
    if not isinstance(candidate_ids, np.ndarray):
        candidate_ids = list(candidate_ids)
    ids = np.asarray(candidate_ids, dtype=np.int64)
    if distances is not None:
        distances = np.asarray(distances, dtype=np.float64)
    keep = ids != u
    if not keep.all():
        ids = ids[keep]
        if distances is not None:
            distances = distances[keep]
    # A search result or a neighbour list is unique by construction; only a
    # caller's hand-made pool pays for the de-duplication.
    if len(set(ids.tolist())) != ids.size:
        # A candidate listed twice keeps its last distance.
        ids, last = np.unique(ids[::-1], return_index=True)
        if distances is not None:
            distances = distances[::-1][last]
    if distances is None:
        distances = dc.many_between(ids, u) if ids.size else np.empty(0)
    order = np.lexsort((ids, distances))[:_POOL_CAP]
    return ids[order], distances[order].astype(np.float64, copy=False)


def rng_prune(dc: DistanceComputer, u: int, candidate_ids, max_degree: int,
              distances=None) -> list[int]:
    """RNG rule: keep c iff every kept s satisfies d(s, c) >= d(u, c)."""
    ids, d_u = _sorted_candidates(dc, u, candidate_ids, distances)
    return _prune(dc, ids, d_u, max_degree)


# MRNG's local selection rule coincides with the RNG occlusion test applied
# to a candidate set sorted by distance (Fu et al. 2019 build NSG this way).
mrng_prune = rng_prune


def alpha_prune(dc: DistanceComputer, u: int, candidate_ids, max_degree: int,
                alpha: float = 1.2, distances=None) -> list[int]:
    """Vamana α-rule: s occludes c only when alpha * d(s, c) < d(u, c)."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    ids, d_u = _sorted_candidates(dc, u, candidate_ids, distances)
    return _prune(dc, ids, d_u / alpha, max_degree)


def tau_prune(dc: DistanceComputer, u: int, candidate_ids, max_degree: int,
              tau: float = 0.0, distances=None) -> list[int]:
    """τ-MNG rule: s occludes c only when d(s, c) < d(u, c) - 3τ.

    With τ=0 this reduces to the RNG rule; larger τ keeps more (longer)
    edges, buying τ-monotonicity of search paths at higher degree.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    ids, d_u = _sorted_candidates(dc, u, candidate_ids, distances)
    return _prune(dc, ids, d_u - 3.0 * tau, max_degree)


def rng_prune_backfill(dc: DistanceComputer, u: int, candidate_ids,
                       max_degree: int, distances=None) -> list[int]:
    """RNG rule, then backfill nearest pruned candidates up to the budget.

    This is the selection HNSW's ``keepPrunedConnections`` heuristic and
    RoarGraph's neighbor lists use: occlusion picks the well-spread core and
    the remaining slots go to the closest rejected candidates, keeping the
    out-degree near the budget instead of collapsing on tightly clustered
    pools.
    """
    ids, d_u = _sorted_candidates(dc, u, candidate_ids, distances)
    kept = _prune(dc, ids, d_u, max_degree)
    if len(kept) < max_degree:
        kept_set = set(kept)
        for c in ids.tolist():
            if c not in kept_set:
                kept.append(c)
                kept_set.add(c)
                if len(kept) >= max_degree:
                    break
    return kept


def random_prune(candidate_ids, max_degree: int,
                 seed: int | np.random.Generator | None = 0) -> list[int]:
    """Keep a uniform random subset — the Fig. 14 'random pruning' baseline."""
    rng = ensure_rng(seed)
    ids = list(dict.fromkeys(int(c) for c in candidate_ids))
    if len(ids) <= max_degree:
        return ids
    picks = rng.choice(len(ids), size=max_degree, replace=False)
    return [ids[int(i)] for i in picks]
