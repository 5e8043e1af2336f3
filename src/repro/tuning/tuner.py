"""Trace-replay tuner: fit per-hardness-bin search parameters from live
recall/NDC estimates.

The tuner closes the telemetry loop (ROADMAP item 4): given a calibration
query set (a recorded query file, or the workload a TraceLog summarized),
it

1. fits a small **landmark set** (streaming-k-means centroids) that defines
   the serving-time hardness measure — distance to the nearest landmark —
   and bins the calibration queries by its quantiles;
2. **measures** recall and distance-computation cost per (bin, ef) cell by
   replaying the bin's queries through the target searcher (batched; the
   same engines serving uses), scoring against exact ground truth when
   provided and a strong reference search otherwise (*live* recall
   estimates — no offline GT required, the SISAP off-the-shelf recipe);
3. **solves** for the cheapest ef per bin under a per-bin recall floor
   (never below the single-ef baseline's measured recall in that bin, and
   up to the target where the baseline undershoots) — so the fitted table
   is no worse than the "hand-set default" single ef, which is computed
   from the same table and kept as the baseline;
4. optionally refines the hardest bin's **route** (exact instead of PQ on
   compressed stores) and the easy bins' **rerank** budget by re-measuring
   variants at the chosen ef.

A recorded TraceLog (``repro stats --traces`` output) can seed the grid:
:func:`replay_traces` summarizes the efs and NDC the workload actually ran
with, and :func:`suggest_ef_grid` centers the search there.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.distances import Metric, pairwise_distances
from repro.evalx.metrics import recall_per_query
from repro.graphs.search import pad_results
from repro.tuning.config import BinSetting, TunedConfig

#: Rough cost of one ADC table lookup relative to one full-precision
#: distance: a lookup touches m uint8 codes instead of dim floats.
ADC_COST_WEIGHT = 0.25


# -- trace replay ------------------------------------------------------------

def replay_traces(traces) -> dict:
    """Summarize a recorded TraceLog (list of trace dicts or a JSON path).

    Returns the workload's observed operating envelope — the efs it ran
    with, per-query NDC, hop counts, and degraded rate — which seeds the
    tuner's grid and rides into the emitted config's provenance.
    """
    if isinstance(traces, (str, pathlib.Path)):
        traces = json.loads(pathlib.Path(traces).read_text())
    efs = [int(t.get("ef", 0)) for t in traces if t.get("ef")]
    ndc = [int(t.get("ndc", 0)) for t in traces]
    hops = [int(t.get("n_hops", 0)) for t in traces]
    degraded = [1 if t.get("degraded") else 0 for t in traces]
    ks = [int(t.get("k", 0)) for t in traces if t.get("k")]
    return {
        "n_traces": len(traces),
        "k_mode": int(np.bincount(ks).argmax()) if ks else 0,
        "ef_min": min(efs) if efs else 0,
        "ef_max": max(efs) if efs else 0,
        "ef_mean": float(np.mean(efs)) if efs else 0.0,
        "ndc_mean": float(np.mean(ndc)) if ndc else 0.0,
        "hops_mean": float(np.mean(hops)) if hops else 0.0,
        "degraded_rate": float(np.mean(degraded)) if degraded else 0.0,
    }


def suggest_ef_grid(k: int, trace_stats: dict | None = None) -> list[int]:
    """An ef grid centered on what the recorded workload actually ran.

    Without traces: the classic doubling ladder from ``k``.  With traces:
    the ladder is anchored at the observed mean ef so the search spends its
    measurements around the operating point instead of from scratch.
    """
    if trace_stats and trace_stats.get("ef_mean"):
        anchor = max(int(trace_stats["ef_mean"]), k)
        grid = {max(k, anchor // 4), max(k, anchor // 2),
                max(k, (3 * anchor) // 4), anchor, (3 * anchor) // 2,
                anchor * 2, anchor * 4}
    else:
        # Half-octave steps: per-bin savings usually hide between the
        # doubling points (ef 20 meets target, 10 misses, 14 is the win).
        grid = {k, (3 * k) // 2, 2 * k, 3 * k, 4 * k, 6 * k, 8 * k, 16 * k}
    return sorted(grid)


# -- landmark fitting --------------------------------------------------------

def fit_landmarks(queries: np.ndarray, n_landmarks: int = 16,
                  metric: Metric | str = Metric.COSINE, seed: int = 0,
                  iters: int = 8) -> np.ndarray:
    """Small Lloyd's k-means over the calibration queries.

    The centroids define the hardness measure (distance to nearest
    landmark) used identically at fit time and at serving time; empty
    clusters reseed to the farthest query so the set never collapses.
    """
    metric = Metric.parse(metric)
    qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    n = qmat.shape[0]
    n_landmarks = max(1, min(int(n_landmarks), n))
    rng = np.random.default_rng(seed)
    centers = qmat[rng.choice(n, size=n_landmarks, replace=False)].copy()
    for _ in range(max(int(iters), 1)):
        dists = pairwise_distances(qmat, centers, metric)
        nearest = dists.argmin(axis=1)
        for j in range(n_landmarks):
            members = qmat[nearest == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = qmat[int(dists.min(axis=1).argmax())]
    return np.ascontiguousarray(centers, dtype=np.float32)


def _crossfit_hardness(qmat: np.ndarray, landmarks: np.ndarray,
                       n_landmarks: int, metric: Metric,
                       seed: int) -> np.ndarray:
    """Calibration hardness scored against *out-of-fold* landmarks.

    Landmarks fitted on the calibration queries make those same queries
    look artificially easy (each pulls its own centroid toward itself), so
    quantile edges cut on in-fold hardness push fresh traffic of the same
    distribution almost entirely into the hardest bin.  Scoring each half
    against landmarks fitted on the other half measures the distance a
    previously-unseen query would see; the edges generalize, while the
    full-fit landmark set still ships as the serving-time measure.
    """
    n = qmat.shape[0]
    if n < 8:
        return pairwise_distances(qmat, landmarks, metric).min(axis=1)
    fold = np.zeros(n, dtype=bool)
    fold[np.random.default_rng(seed).permutation(n)[:n // 2]] = True
    hardness = np.empty(n, dtype=np.float64)
    for mask in (fold, ~fold):
        held_out = fit_landmarks(qmat[~mask], n_landmarks, metric, seed)
        hardness[mask] = pairwise_distances(
            qmat[mask], held_out, metric).min(axis=1)
    return hardness


# -- measurement -------------------------------------------------------------

def _measure(searcher, qmat: np.ndarray, k: int, setting: BinSetting,
             batch_size: int) -> tuple[np.ndarray, float]:
    """Replay ``qmat`` at one setting; returns (padded ids, cost/query).

    Cost is exact distance computations plus down-weighted ADC lookups —
    the deterministic proxy the solver minimizes (wall-clock validation
    belongs to the benchmark gate, not the fit).
    """
    dc = searcher.dc
    adc = getattr(searcher, "adc", None)
    ndc0 = dc.ndc
    adc0 = adc.ndc if adc is not None else 0
    if hasattr(searcher, "search_group"):
        results = searcher.search_group(qmat, k, setting,
                                        batch_size=batch_size)
    else:
        results = searcher.search_batch(qmat, k, setting.ef,
                                        batch_size=batch_size)
    cost = float(dc.ndc - ndc0)
    if adc is not None:
        cost += ADC_COST_WEIGHT * float(adc.ndc - adc0)
    return pad_results(results, k)[0], cost / max(qmat.shape[0], 1)


# -- fitting -----------------------------------------------------------------

def fit_tuned_config(searcher, queries: np.ndarray, k: int,
                     target_recall: float = 0.9,
                     ef_grid: list[int] | None = None, n_bins: int = 3,
                     n_landmarks: int = 16, batch_size: int = 64,
                     gt_ids: np.ndarray | None = None,
                     trace_stats: dict | None = None, seed: int = 0,
                     metric: Metric | str | None = None,
                     refine_routes: bool = True,
                     score_shift: float = 0.6) -> TunedConfig:
    """Fit a :class:`TunedConfig` by replaying queries through ``searcher``.

    ``searcher`` is anything with the index search protocol
    (``search_batch``/``dc``); a :class:`~repro.serving.ServingSearcher`
    additionally gets per-setting routing measured through the exact
    engines serving will use.  ``gt_ids`` (n, >=k) provides exact ground
    truth; without it a strong reference search (4x the grid maximum)
    stands in — live recall estimation.
    """
    qmat = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if metric is None:
        metric = searcher.dc.metric
    metric = Metric.parse(metric)
    if ef_grid is None:
        ef_grid = suggest_ef_grid(k, trace_stats)
    ef_grid = sorted({max(int(ef), k) for ef in ef_grid})

    landmarks = fit_landmarks(qmat, n_landmarks, metric, seed)
    hardness = _crossfit_hardness(qmat, landmarks, n_landmarks, metric, seed)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    edges = np.quantile(hardness, quantiles)
    bins = np.digitize(hardness, edges)

    if gt_ids is None:
        ref = BinSetting(ef=4 * ef_grid[-1], route="exact")
        gt_ids, _ = _measure(searcher, qmat, k, ref, batch_size)
    gt_ids = np.asarray(gt_ids)[:, :k]

    # Full (bin, ef) recall/cost table from batched replay.
    members = [np.flatnonzero(bins == b) for b in range(n_bins)]
    weights = np.array([m.size for m in members], dtype=np.float64)
    weights /= max(weights.sum(), 1.0)
    recall = np.zeros((n_bins, len(ef_grid)))
    cost = np.zeros((n_bins, len(ef_grid)))
    for b, idx in enumerate(members):
        if not idx.size:
            continue
        for j, ef in enumerate(ef_grid):
            found, per_query = _measure(searcher, qmat[idx], k,
                                        BinSetting(ef=ef), batch_size)
            recall[b, j] = float(recall_per_query(found, gt_ids[idx]).mean())
            cost[b, j] = per_query

    # The hand-set baseline: smallest single global ef meeting the target.
    default_j = len(ef_grid) - 1
    for j in range(len(ef_grid)):
        if float(weights @ recall[:, j]) >= target_recall:
            default_j = j
            break

    chosen = _solve_bin_efs(recall, cost, target_recall,
                            fallback_j=default_j)
    # Empty bins inherit the nearest fitted bin's choice (harder side wins
    # ties) — same convention as AdaptiveSearcher.calibrate.
    fitted = [b for b in range(n_bins) if members[b].size]
    for b in range(n_bins):
        if not members[b].size and fitted:
            chosen[b] = chosen[min(fitted, key=lambda f: (abs(f - b), -f))]

    settings = [BinSetting(ef=ef_grid[j]) for j in chosen]
    if refine_routes and getattr(searcher, "adc", None) is not None:
        settings = _refine_compressed(searcher, qmat, k, settings, members,
                                      gt_ids, recall, chosen, batch_size)

    table = {
        str(b): {
            "n_queries": int(members[b].size),
            "ef": settings[b].ef,
            "route": settings[b].route,
            "recall": round(float(recall[b, chosen[b]]), 4),
            "cost_per_query": round(float(cost[b, chosen[b]]), 1),
        } for b in range(n_bins)
    }
    return TunedConfig(
        k=k, target_recall=target_recall,
        edges=[float(e) for e in edges],
        bins=settings,
        landmarks=landmarks.tolist(),
        default_ef=ef_grid[default_j],
        score_shift=score_shift,
        metric=metric.value,
        meta={
            "ef_grid": ef_grid,
            "n_calibration_queries": int(qmat.shape[0]),
            "bin_table": table,
            "trace_stats": trace_stats or {},
            "ground_truth": "exact" if gt_ids is not None else "reference",
        },
    )


def _solve_bin_efs(recall: np.ndarray, cost: np.ndarray, target: float,
                   fallback_j: int, slack: float = 0.005) -> list[int]:
    """Cheapest per-bin ef with a *per-bin* recall floor.

    The floor for bin ``b`` is the better of the target (capped at what the
    grid can reach in that bin) and the single-ef baseline's measured
    recall there (minus measurement ``slack``).  Constraining every bin —
    not just the occupancy-weighted mean — keeps the fitted table no worse
    than the hand-set default under *any* serving mix: a joint solve would
    happily trade the hard bin's recall away against the easy majority,
    which collapses the moment the live distribution shifts hard.  Bins
    where the baseline undershoots the target get *larger* efs (the
    hardness-aware boost); bins where recall has saturated get cheaper
    ones.
    """
    n_bins, n_grid = recall.shape
    chosen = []
    for b in range(n_bins):
        floor = max(min(target, float(recall[b].max())),
                    float(recall[b, fallback_j]) - slack)
        feasible = [j for j in range(n_grid) if recall[b, j] >= floor]
        if feasible:
            chosen.append(min(feasible, key=lambda j: (cost[b, j], j)))
        else:
            chosen.append(fallback_j)
    return chosen


def _refine_compressed(searcher, qmat, k, settings, members, gt_ids,
                       recall, chosen, batch_size):
    """Route/rerank refinement for compressed stores.

    The hardest bin tries the exact full-precision route (OOD walks pay
    quantization error twice: bad hops *and* a shortlist that misses);
    easy bins try tighter rerank budgets.  A variant is adopted only when
    it keeps the bin's measured recall and lowers its cost.
    """
    base_rerank = int(getattr(searcher, "rerank", 2 * k) or 2 * k)
    for b, setting in enumerate(settings):
        idx = members[b]
        if not idx.size:
            continue
        floor = float(recall[b, chosen[b]])
        _, base_cost = _measure(searcher, qmat[idx], k, setting, batch_size)
        variants = []
        if b == len(settings) - 1:
            variants.append(BinSetting(ef=setting.ef, route="exact",
                                       beam_width=1))
        else:
            for budget in sorted({max(k, base_rerank // 2), 2 * k}):
                if budget < base_rerank:
                    variants.append(BinSetting(ef=setting.ef, rerank=budget))
        for variant in variants:
            found, var_cost = _measure(searcher, qmat[idx], k, variant,
                                       batch_size)
            var_recall = float(recall_per_query(found, gt_ids[idx]).mean())
            if var_recall >= floor and var_cost < base_cost:
                settings[b], base_cost, floor = variant, var_cost, var_recall
    return settings
