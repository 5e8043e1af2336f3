"""repro — reproduction of "Dynamically Detect and Fix Hardness for
Efficient Approximate Nearest Neighbor Search" (NGFix / RFix).

Quickstart::

    from repro import load_dataset, HNSW, NGFixer, FixConfig
    from repro import compute_ground_truth, evaluate_index

    ds = load_dataset("laion-sim")
    base = HNSW(ds.base, ds.metric, M=16)
    fixer = NGFixer(base, FixConfig(k=10, preprocess="approx"))
    fixer.fit(ds.train_queries)

    gt = compute_ground_truth(ds.base, ds.test_queries, k=10, metric=ds.metric)
    print(evaluate_index(fixer, ds.test_queries, gt, k=10, ef=40))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.distances import Metric, DistanceComputer, pairwise_distances
from repro.datasets import (
    Dataset,
    load_dataset,
    list_datasets,
    dataset_statistics,
    make_cross_modal_dataset,
    make_single_modal_dataset,
    make_drifting_workload,
    DriftingWorkload,
    CrossModalConfig,
    ood_report,
)
from repro.evalx import (
    GroundTruth,
    compute_ground_truth,
    recall_at_k,
    rderr_at_k,
    OperatingPoint,
    evaluate_index,
    sweep,
    qps_at_recall,
    ndc_at_rderr,
)
from repro.graphs import (
    HNSW,
    NSG,
    NSW,
    TauMNG,
    RoarGraph,
    Vamana,
    RobustVamana,
    BruteForceIndex,
    GraphIndex,
    SearchResult,
    greedy_search,
)
from repro.io import save_index, load_index, FrozenIndex
from repro.obs import OBS, TRACES, MetricsRegistry, QueryTrace, TraceLog
from repro.quantization import ProductQuantizer, IVFFlat
from repro.serving import (
    DeltaOverlay,
    EpochManager,
    EpochPin,
    EpochView,
    GraphEpoch,
    MaintenanceScheduler,
    ServingSearcher,
)
from repro.config import StoreConfig
from repro.store import VectorStore
from repro.durability import (
    RecoveryError,
    RecoveryReport,
    SnapshotManager,
    WriteAheadLog,
    read_wal,
    recover,
)
from repro.faults import FAULTS, FaultInjected, FaultPlan
from repro.cluster import ClusterRouter, FrontDoor, merge_stats, merge_topk_batch
from repro.core import (
    escape_hardness,
    EscapeHardnessResult,
    reachability_matrix,
    build_qng,
    qng_connectivity_report,
    ngfix_query,
    rfix_query,
    FixConfig,
    NGFixer,
    IndexMaintainer,
    augment_queries,
    ngfix_plus_query,
    HashTableCache,
    CachedSearcher,
    AdaptiveSearcher,
    WorkloadAdapter,
    explain_query,
    phase_reach_stats,
)

__version__ = "1.0.0"

__all__ = [
    "Metric",
    "DistanceComputer",
    "pairwise_distances",
    "Dataset",
    "load_dataset",
    "list_datasets",
    "dataset_statistics",
    "make_cross_modal_dataset",
    "make_single_modal_dataset",
    "CrossModalConfig",
    "ood_report",
    "GroundTruth",
    "compute_ground_truth",
    "recall_at_k",
    "rderr_at_k",
    "OperatingPoint",
    "evaluate_index",
    "sweep",
    "qps_at_recall",
    "ndc_at_rderr",
    "HNSW",
    "NSG",
    "TauMNG",
    "RoarGraph",
    "Vamana",
    "RobustVamana",
    "NSW",
    "explain_query",
    "save_index",
    "load_index",
    "FrozenIndex",
    "BruteForceIndex",
    "GraphIndex",
    "SearchResult",
    "greedy_search",
    "escape_hardness",
    "EscapeHardnessResult",
    "reachability_matrix",
    "build_qng",
    "qng_connectivity_report",
    "ngfix_query",
    "rfix_query",
    "FixConfig",
    "NGFixer",
    "IndexMaintainer",
    "augment_queries",
    "ngfix_plus_query",
    "HashTableCache",
    "CachedSearcher",
    "AdaptiveSearcher",
    "WorkloadAdapter",
    "phase_reach_stats",
    "ProductQuantizer",
    "IVFFlat",
    "make_drifting_workload",
    "DriftingWorkload",
    "VectorStore",
    "StoreConfig",
    "OBS",
    "TRACES",
    "MetricsRegistry",
    "QueryTrace",
    "TraceLog",
    "GraphEpoch",
    "DeltaOverlay",
    "EpochView",
    "EpochPin",
    "EpochManager",
    "ServingSearcher",
    "MaintenanceScheduler",
    "WriteAheadLog",
    "read_wal",
    "SnapshotManager",
    "RecoveryReport",
    "RecoveryError",
    "recover",
    "FAULTS",
    "FaultPlan",
    "FaultInjected",
    "ClusterRouter",
    "FrontDoor",
    "merge_stats",
    "merge_topk_batch",
    "__version__",
]
