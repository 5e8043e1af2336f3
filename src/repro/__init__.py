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

import importlib

#: Each public name's home module.  Resolved on first access (PEP 562), so
#: ``import repro`` — and with it every ``import repro.<x>``, a cluster
#: worker's spawn included — loads only what the caller names.
_HOMES = {
    "repro.distances": ("Metric", "DistanceComputer", "pairwise_distances"),
    "repro.datasets": (
        "Dataset", "load_dataset", "list_datasets", "dataset_statistics",
        "make_cross_modal_dataset", "make_single_modal_dataset",
        "make_drifting_workload", "DriftingWorkload", "CrossModalConfig",
        "ood_report",
    ),
    "repro.evalx": (
        "GroundTruth", "compute_ground_truth", "recall_at_k", "rderr_at_k",
        "OperatingPoint", "evaluate_index", "sweep", "qps_at_recall",
        "ndc_at_rderr",
    ),
    "repro.graphs": (
        "HNSW", "NSG", "NSW", "TauMNG", "RoarGraph", "Vamana", "RobustVamana",
        "BruteForceIndex", "GraphIndex", "SearchResult", "greedy_search",
    ),
    "repro.io": ("save_index", "load_index", "FrozenIndex"),
    "repro.obs": (
        "OBS", "TRACES", "MetricsRegistry", "QueryTrace", "TraceLog",
    ),
    "repro.quantization": ("ProductQuantizer", "IVFFlat"),
    "repro.serving": (
        "DeltaOverlay", "EpochManager", "EpochPin", "EpochView", "GraphEpoch",
        "MaintenanceScheduler", "ServingSearcher",
    ),
    "repro.config": ("StoreConfig",),
    "repro.store": ("VectorStore",),
    "repro.durability": (
        "RecoveryError", "RecoveryReport", "SnapshotManager", "WriteAheadLog",
        "read_wal", "recover",
    ),
    "repro.faults": ("FAULTS", "FaultInjected", "FaultPlan"),
    "repro.cluster": (
        "ClusterRouter", "FrontDoor", "merge_stats", "merge_topk_batch",
    ),
    "repro.core": (
        "escape_hardness", "EscapeHardnessResult", "reachability_matrix",
        "build_qng", "qng_connectivity_report", "ngfix_query", "rfix_query",
        "FixConfig", "NGFixer", "IndexMaintainer", "augment_queries",
        "ngfix_plus_query", "HashTableCache", "CachedSearcher",
        "AdaptiveSearcher", "WorkloadAdapter", "explain_query",
        "phase_reach_stats",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

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


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
