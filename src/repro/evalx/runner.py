"""Sweep harness producing the paper's recall–QPS and rderr–NDC curves.

An index under evaluation must provide ``search(query, k, ef)`` returning an
object with ``ids``/``distances`` arrays, and expose its
:class:`~repro.distances.DistanceComputer` as ``dc`` so distance calculations
can be counted (all indexes in :mod:`repro.graphs` satisfy this).

The paper's protocol (Sec. 6.1) is followed: sweep the search list size ef
upward from k, record (recall, rderr, QPS, NDC) at each setting, then read
off QPS at fixed recall / NDC at fixed rderr by interpolation.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.evalx.ground_truth import GroundTruth
from repro.evalx.metrics import recall_per_query, recall_percentiles, rderr_per_query
from repro.obs import OBS
from repro.utils.validation import check_positive

# Aggregate accounting flows through the registry, recorded once per run.
_EVAL_QUERIES = OBS.counter(
    "eval_queries", "queries evaluated by evaluate_index")
_EVAL_NDC = OBS.counter(
    "eval_ndc", "distance computations accounted by evaluate_index")
_EVAL_SECONDS = OBS.histogram(
    "eval_run_seconds", "wall-clock seconds of one evaluate_index call",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
             60.0))
_EVAL_RECALL = OBS.gauge("eval_last_recall", "recall of the last evaluation")
_EVAL_QPS = OBS.gauge("eval_last_qps", "QPS of the last evaluation")
_CHURN_SEARCH_SECONDS = OBS.counter(
    "churn_search_seconds", "search wall-clock inside interleaved workloads")
_CHURN_MUTATION_SECONDS = OBS.counter(
    "churn_mutation_seconds",
    "mutation wall-clock inside interleaved workloads")
_CHURN_MUTATIONS = OBS.counter(
    "churn_mutations", "inserts + deletes applied by interleaved workloads")


@dataclasses.dataclass
class OperatingPoint:
    """One point on an index's trade-off curve (one ef setting).

    ``ndc_per_query`` counts full-precision distance computations; on a
    compressed (PQ) searcher it collapses to the exact re-rank budget while
    ``adc_per_query`` carries the cheap table-lookup scorings (0.0 for
    uncompressed indexes).  ``ef=None`` marks a run at the index's default
    ``ef``.
    """

    ef: int | None
    recall: float
    rderr: float
    qps: float
    ndc_per_query: float
    elapsed_s: float
    adc_per_query: float = 0.0


def evaluate_index(
    index,
    queries: np.ndarray,
    gt: GroundTruth,
    k: int,
    ef: int | None,
    batch_size: int = 1,
) -> OperatingPoint:
    """Run every query at one ef setting and aggregate metrics.

    ``batch_size > 1`` routes queries through the index's batch engine
    (``search_batch``; a store spreads its blocks over the process's
    thread pool), otherwise each query is one ``search`` on the calling
    thread — the paper's one-thread QPS setting.  Recall, rderr, and NDC
    are identical on both paths — only wall-clock QPS changes.

    ``ef=None`` runs the index at its default ``ef``.
    """
    check_positive(k, "k")
    check_positive(batch_size, "batch_size")
    if ef is not None and ef < k:
        raise ValueError(f"ef={ef} must be >= k={k}")
    queries = np.asarray(queries, dtype=np.float32)
    if queries.shape[0] != gt.n_queries:
        raise ValueError("query count differs from ground truth")
    gt_k = gt.top(k)
    n_queries = queries.shape[0]

    found_ids = np.empty((n_queries, k), dtype=np.int64)
    found_d = np.empty((n_queries, k), dtype=np.float64)
    index.dc.reset_ndc()
    adc0 = getattr(index, "adc_scored", 0)
    start = time.perf_counter()
    if batch_size > 1:
        results = index.search_batch(queries, k, ef, batch_size=batch_size)
    else:
        results = [index.search(query, k=k, ef=ef) for query in queries]
    elapsed = time.perf_counter() - start
    ndc = index.dc.ndc
    adc = getattr(index, "adc_scored", 0) - adc0
    for i, result in enumerate(results):
        m = min(k, len(result.ids))
        found_ids[i, :m] = result.ids[:m]
        found_d[i, :m] = result.distances[:m]
        if m < k:  # pad short results with sentinel misses
            found_ids[i, m:] = -1
            found_d[i, m:] = np.inf

    recall = float(recall_per_query(found_ids, gt_k.ids).mean())
    finite = np.isfinite(found_d).all(axis=1)
    if finite.any():
        rderr = float(rderr_per_query(found_d[finite], gt_k.distances[finite]).mean())
    else:
        rderr = float("inf")
    qps = queries.shape[0] / max(elapsed, 1e-9)
    if OBS.enabled:
        _EVAL_QUERIES.inc(n_queries)
        _EVAL_NDC.inc(int(ndc))
        _EVAL_SECONDS.observe(elapsed)
        _EVAL_RECALL.set(recall)
        _EVAL_QPS.set(qps)
    return OperatingPoint(
        ef=ef,
        recall=recall,
        rderr=rderr,
        qps=qps,
        ndc_per_query=ndc / queries.shape[0],
        elapsed_s=elapsed,
        adc_per_query=adc / queries.shape[0],
    )


def sweep(
    index,
    queries: np.ndarray,
    gt: GroundTruth,
    k: int,
    ef_values: list[int] | None = None,
    stop_at_recall: float = 0.999,
    batch_size: int = 1,
) -> list[OperatingPoint]:
    """Evaluate an increasing ef schedule, stopping once recall saturates.

    Default schedule mirrors the paper: start at ef=k and step upward; we use
    multiplicative steps to cover the curve with fewer points at small scale.
    """
    if ef_values is None:
        ef_values, ef = [], k
        while ef <= 64 * k:
            ef_values.append(ef)
            ef = max(ef + 10, int(ef * 1.5))
    points = []
    for ef in ef_values:
        point = evaluate_index(index, queries, gt, k, ef,
                               batch_size=batch_size)
        points.append(point)
        if point.recall >= stop_at_recall:
            break
    return points


def _interp(points: list[OperatingPoint], x_attr: str, y_attr: str,
            target: float, increasing: bool) -> float | None:
    """Linear interpolation of y at x=target along a curve; None if unreached."""
    pairs = sorted(
        ((getattr(p, x_attr), getattr(p, y_attr)) for p in points),
        key=lambda t: t[0],
    )
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if increasing:
        reached = [i for i, x in enumerate(xs) if x >= target]
    else:
        reached = [i for i, x in enumerate(xs) if x <= target]
    if not reached:
        return None
    j = reached[0] if increasing else reached[-1]
    if xs[j] == target or (increasing and j == 0) or (not increasing and j == len(xs) - 1):
        return ys[j]
    i = j - 1 if increasing else j + 1
    x0, x1, y0, y1 = xs[i], xs[j], ys[i], ys[j]
    if x1 == x0:
        return y1
    frac = (target - x0) / (x1 - x0)
    return y0 + frac * (y1 - y0)


def qps_at_recall(points: list[OperatingPoint], target_recall: float) -> float | None:
    """QPS the curve achieves at the target recall (None if never reached)."""
    return _interp(points, "recall", "qps", target_recall, increasing=True)


def ndc_at_rderr(points: list[OperatingPoint], target_rderr: float) -> float | None:
    """NDC/query needed to push rderr down to the target (None if never)."""
    return _interp(points, "rderr", "ndc_per_query", target_rderr, increasing=False)


def ndc_at_recall(points: list[OperatingPoint], target_recall: float) -> float | None:
    """NDC/query needed to reach the target recall (None if never)."""
    return _interp(points, "recall", "ndc_per_query", target_recall, increasing=True)


def ef_for_recall(points: list[OperatingPoint], target_recall: float) -> int | None:
    """Smallest swept ef whose recall meets the target (None if never)."""
    for point in sorted(points, key=lambda p: p.ef):
        if point.recall >= target_recall:
            return point.ef
    return None


def _maintenance_seconds(scheduler) -> float:
    """Cumulative repair+merge wall-clock a scheduler has spent (0 sans one)."""
    if scheduler is None:
        return 0.0
    return (getattr(scheduler, "repair_seconds", 0.0)
            + getattr(scheduler, "merge_seconds", 0.0))


@dataclasses.dataclass
class ChurnReport:
    """Outcome of one interleaved search/mutation (churn) run.

    ``qps`` counts *search time only* (the sum of per-batch search
    wall-clock), so it isolates the serving path's cost under churn from the
    unrelated cost of the mutations themselves; ``mutation_seconds`` records
    the latter.

    ``recall_p50``/``recall_p95``/``recall_p99`` are lower-tail percentiles
    (the recall 50/95/99% of queries meet or beat — see
    :func:`~repro.evalx.metrics.recall_percentiles`); churn damage that a
    mean hides shows up as ``recall_p99`` collapsing.
    ``maintenance_seconds`` is the scheduler's cumulative repair + merge
    wall-clock attributable to this run.
    """

    n_queries: int
    n_inserts: int
    n_deletes: int
    n_observed: int
    recall: float
    qps: float
    search_seconds: float
    mutation_seconds: float
    merges: int
    repairs: int
    recall_p50: float = 0.0
    recall_p95: float = 0.0
    recall_p99: float = 0.0
    maintenance_seconds: float = 0.0


def interleaved_workload(
    store,
    queries: np.ndarray,
    gt: GroundTruth,
    k: int,
    ef: int,
    batch_size: int = 32,
    mutation_fraction: float = 0.1,
    churn_ids: list[int] | None = None,
    observe_every: int = 0,
    seed: int = 0,
    vectors: np.ndarray | None = None,
) -> ChurnReport:
    """Serve queries while continuously mutating the index (churn protocol).

    ``store`` is a :class:`~repro.store.VectorStore`-like object
    (``search_batch``/``add``/``delete``/``observe``/``dc``, plus
    ``scheduler``/``epochs`` when serving is enabled).  Queries run in
    batches; between batches, delete/re-insert pairs are applied so that
    mutations make up ``mutation_fraction`` of all operations (the paper-era
    serving mix — 0.1 reproduces a 90% search / 10% mutation workload).

    Churn is *recall-neutral by construction*: only ids outside every
    query's ground-truth top-k (``churn_ids``; derived automatically when
    omitted) are deleted, and each deletion is later compensated by
    re-inserting the same vector under a fresh id — so measured recall under
    churn is directly comparable to the read-only recall at the same ``ef``,
    and any gap is graph damage the serving/repair layers failed to contain.

    ``observe_every > 0`` additionally feeds every Nth query batch's first
    query to ``store.observe`` (online NGFix/RFix repair).

    ``vectors`` supplies the base matrix indexed by id for delete/re-insert
    pairs; when omitted the store's own ``dc.data`` is read.  Pass it for
    stores that do not expose resident vectors — e.g. a
    :class:`~repro.cluster.router.ClusterRouter`, whose vectors live in the
    shard worker processes.
    """
    check_positive(k, "k")
    check_positive(batch_size, "batch_size")
    queries = np.asarray(queries, dtype=np.float32)
    gt_k = gt.top(k)
    rng = np.random.default_rng(seed)

    def vector_of(vid: int) -> np.ndarray:
        if vectors is not None:
            return np.array(vectors[vid], copy=True)
        return np.array(store.dc.data[vid], copy=True)

    if churn_ids is None:
        protected = set(np.unique(gt_k.ids).tolist())
        churn_ids = [i for i in range(store.dc.size) if i not in protected]
    churn_ids = list(churn_ids)
    rng.shuffle(churn_ids)
    if not churn_ids:
        raise ValueError("no churn-eligible ids (every id is in the gt top-k)")

    # Each batch of B searches owes B * f / (1 - f) mutation ops; the
    # fractional remainder carries over so the long-run ratio is exact.
    ops_per_batch = batch_size * mutation_fraction / (1.0 - mutation_fraction)

    found_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
    pending_reinserts: list[tuple[int, np.ndarray]] = []
    churn_cursor = 0
    owed = 0.0
    search_s = 0.0
    mutation_s = 0.0
    n_inserts = n_deletes = n_observed = 0

    scheduler = getattr(store, "scheduler", None)
    merges0 = scheduler.n_merges if scheduler is not None else 0
    repairs0 = scheduler.n_repairs if scheduler is not None else 0
    maint0 = _maintenance_seconds(scheduler)

    n_batches = 0
    for start in range(0, queries.shape[0], batch_size):
        block = queries[start:start + batch_size]
        t0 = time.perf_counter()
        results = store.search_batch(block, k, ef, batch_size=batch_size)
        search_s += time.perf_counter() - t0
        for i, result in enumerate(results):
            m = min(k, len(result.ids))
            found_ids[start + i, :m] = result.ids[:m]

        t0 = time.perf_counter()
        owed += ops_per_batch
        while owed >= 1.0:
            owed -= 1.0
            if pending_reinserts and (churn_cursor >= len(churn_ids)
                                      or rng.random() < 0.5):
                _, vector = pending_reinserts.pop(0)
                store.add(vector[None, :])
                n_inserts += 1
            elif churn_cursor < len(churn_ids):
                victim = churn_ids[churn_cursor]
                churn_cursor += 1
                pending_reinserts.append((victim, vector_of(victim)))
                store.delete([victim])
                n_deletes += 1
        n_batches += 1
        if observe_every and n_batches % observe_every == 0:
            store.observe(block[0])
            n_observed += 1
        mutation_s += time.perf_counter() - t0

    per_query = recall_per_query(found_ids, gt_k.ids)
    pct = recall_percentiles(per_query)
    recall = float(per_query.mean())
    if OBS.enabled:
        _CHURN_SEARCH_SECONDS.inc(search_s)
        _CHURN_MUTATION_SECONDS.inc(mutation_s)
        _CHURN_MUTATIONS.inc(n_inserts + n_deletes)
    return ChurnReport(
        n_queries=queries.shape[0],
        n_inserts=n_inserts,
        n_deletes=n_deletes,
        n_observed=n_observed,
        recall=recall,
        qps=queries.shape[0] / max(search_s, 1e-9),
        search_seconds=search_s,
        mutation_seconds=mutation_s,
        merges=(scheduler.n_merges - merges0) if scheduler is not None else 0,
        repairs=(scheduler.n_repairs - repairs0) if scheduler is not None else 0,
        recall_p50=pct["p50"],
        recall_p95=pct["p95"],
        recall_p99=pct["p99"],
        maintenance_seconds=_maintenance_seconds(scheduler) - maint0,
    )


@dataclasses.dataclass
class StormReport:
    """Outcome of one bursty delete-storm run (the adversarial churn
    protocol).

    Same accounting conventions as :class:`ChurnReport` — ``qps`` over
    search seconds only, recall percentiles on the lower tail,
    ``maintenance_seconds`` = the scheduler's repair + merge wall-clock —
    plus storm bookkeeping.  ``n_queries`` counts query *executions*
    (each round re-serves the query set; recurring traffic is what makes
    post-storm repair pay off, and what the p99 gate measures).
    """

    n_queries: int
    n_storms: int
    n_deletes: int
    n_reinserts: int
    n_observed: int
    recall: float
    recall_p50: float
    recall_p95: float
    recall_p99: float
    qps: float
    search_seconds: float
    mutation_seconds: float
    maintenance_seconds: float
    repairs: int
    merges: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def delete_storm_workload(
    store,
    queries: np.ndarray,
    gt: GroundTruth,
    k: int,
    ef: int,
    *,
    batch_size: int = 16,
    rounds: int = 3,
    storm_every: int = 12,
    storm_size: int = 24,
    calm_mutations: int = 2,
    observe_every: int = 1,
    seed: int = 0,
    vectors: np.ndarray | None = None,
) -> StormReport:
    """Serve queries under bursty delete storms (tail-recall stressor).

    The steady-state churn of :func:`interleaved_workload` spreads
    mutations evenly; this protocol is adversarial instead: every
    ``storm_every``-th query batch deletes ``storm_size`` ids in one call
    (tombstones pile up and compaction rewires edges store-wide), while
    calm batches trickle ``calm_mutations`` re-inserts of previously
    deleted vectors so the corpus size recovers between storms.  The query
    set is served ``rounds`` times so post-storm traffic revisits the
    damaged regions.

    Like the steady-state protocol, storms are *recall-neutral by
    construction* (only ids outside every query's ground-truth top-k are
    deleted), so any recall drop — and in particular the p99 tail this
    harness gates on — is navigability damage, not missing answers.

    ``observe_every > 0`` offers every Nth batch's first query to
    ``store.observe``: the repair feedback stream.

    Determinism: storms fire on batch counts and deletions follow a seeded
    shuffle, so the run is reproducible wall-clock-free.
    """
    check_positive(k, "k")
    check_positive(batch_size, "batch_size")
    check_positive(rounds, "rounds")
    check_positive(storm_every, "storm_every")
    check_positive(storm_size, "storm_size")
    queries = np.asarray(queries, dtype=np.float32)
    gt_k = gt.top(k)
    rng = np.random.default_rng(seed)

    def vector_of(vid: int) -> np.ndarray:
        if vectors is not None:
            return np.array(vectors[vid], copy=True)
        return np.array(store.dc.data[vid], copy=True)

    protected = set(np.unique(gt_k.ids).tolist())
    churn_ids = [i for i in range(store.dc.size) if i not in protected]
    rng.shuffle(churn_ids)
    if len(churn_ids) < storm_size:
        raise ValueError(
            f"only {len(churn_ids)} churn-eligible ids for storms of "
            f"{storm_size}; grow the corpus or shrink storm_size")

    scheduler = getattr(store, "scheduler", None)
    merges0 = scheduler.n_merges if scheduler is not None else 0
    repairs0 = scheduler.n_repairs if scheduler is not None else 0
    maint0 = _maintenance_seconds(scheduler)

    n_q = queries.shape[0]
    found_ids = np.full((rounds * n_q, k), -1, dtype=np.int64)
    pending_reinserts: list[tuple[int, np.ndarray]] = []
    churn_cursor = 0
    search_s = 0.0
    mutation_s = 0.0
    n_storms = n_deletes = n_reinserts = n_observed = 0
    n_batches = 0

    for r in range(rounds):
        for start in range(0, n_q, batch_size):
            block = queries[start:start + batch_size]
            t0 = time.perf_counter()
            results = store.search_batch(block, k, ef, batch_size=batch_size)
            search_s += time.perf_counter() - t0
            row0 = r * n_q + start
            for i, result in enumerate(results):
                m = min(k, len(result.ids))
                found_ids[row0 + i, :m] = result.ids[:m]

            n_batches += 1
            t0 = time.perf_counter()
            if n_batches % storm_every == 0:
                # The storm: one burst delete call, tombstones land at once.
                take = min(storm_size, len(churn_ids) - churn_cursor)
                if take > 0:
                    victims = churn_ids[churn_cursor:churn_cursor + take]
                    churn_cursor += take
                    pending_reinserts.extend(
                        (v, vector_of(v)) for v in victims)
                    store.delete(victims)
                    n_deletes += take
                    n_storms += 1
            else:
                for _ in range(calm_mutations):
                    if not pending_reinserts:
                        break
                    _, vector = pending_reinserts.pop(0)
                    store.add(vector[None, :])
                    n_reinserts += 1
            if observe_every and n_batches % observe_every == 0:
                store.observe(block[0])
                n_observed += 1
            mutation_s += time.perf_counter() - t0

    gt_tiled = np.tile(gt_k.ids, (rounds, 1))
    per_query = recall_per_query(found_ids, gt_tiled)
    pct = recall_percentiles(per_query)
    if OBS.enabled:
        _CHURN_SEARCH_SECONDS.inc(search_s)
        _CHURN_MUTATION_SECONDS.inc(mutation_s)
        _CHURN_MUTATIONS.inc(n_deletes + n_reinserts)
    return StormReport(
        n_queries=rounds * n_q,
        n_storms=n_storms,
        n_deletes=n_deletes,
        n_reinserts=n_reinserts,
        n_observed=n_observed,
        recall=float(per_query.mean()),
        recall_p50=pct["p50"],
        recall_p95=pct["p95"],
        recall_p99=pct["p99"],
        qps=rounds * n_q / max(search_s, 1e-9),
        search_seconds=search_s,
        mutation_seconds=mutation_s,
        maintenance_seconds=_maintenance_seconds(scheduler) - maint0,
        repairs=(scheduler.n_repairs - repairs0
                 if scheduler is not None else 0),
        merges=(scheduler.n_merges - merges0
                if scheduler is not None else 0),
    )
