"""The public surface, pinned: growing it is a reviewed diff, not an accident."""

import inspect

import repro.core
import repro.serving
import repro.vectordb
from repro.serving import AsyncGateway
from repro.sqldb import SemanticRuntime
from repro.vectordb import ExactIVFIndex

SERVING = [
    "AsyncGateway",
    "BatchingScheduler",
    "BudgetMiddleware",
    "CascadeMiddleware",
    "ClusterLookup",
    "ClusterRouter",
    "CompletionProvider",
    "GatewayRequest",
    "GatewayResult",
    "GatewayTicket",
    "LatencyHistogram",
    "MetricsMiddleware",
    "Middleware",
    "ReseedableProvider",
    "ResilienceConfig",
    "ResilienceMiddleware",
    "RetryMiddleware",
    "SemanticCacheMiddleware",
    "ServiceStats",
    "ServingCluster",
    "ServingStack",
    "ShardedSemanticCache",
    "TenantPolicy",
    "build_stack",
    "last_question_key",
    "make_client",
    "shared_prefix",
]

CORE = [
    "AdaptiveKPredictor",
    "AdmissionPredictor",
    "CacheStats",
    "CascadeClient",
    "CascadeResult",
    "CombinedPlan",
    "ConfidenceDecisionModel",
    "DecomposedQuery",
    "EvictionPolicy",
    "HybridPlanner",
    "LearnedDecisionModel",
    "LearnedOrderRouter",
    "QueryOptimizer",
    "SemanticCache",
    "shared_subquery_plan",
]

VECTORDB = [
    "Collection",
    "ExactIVFIndex",
    "FLAT_MAX_ENTRIES",
    "FilterStrategy",
    "FlatIndex",
    "HNSWIndex",
    "IVFIndex",
    "Metric",
    "MetadataFilter",
    "PartitionSpec",
    "SearchHit",
    "SearchReport",
    "TuningResult",
    "auto_index",
    "measure_recall",
    "tune_ef_search",
    "tune_nprobe",
]


def _options(callable_):
    return [name for name in inspect.signature(callable_).parameters if name != "self"]


def test_serving_exports():
    assert repro.serving.__all__ == SERVING
    assert all(hasattr(repro.serving, name) for name in SERVING)


def test_core_exports():
    assert repro.core.__all__ == CORE
    assert all(hasattr(repro.core, name) for name in CORE)


def test_gateway_has_no_scheduler_knobs():
    # How requests are batched and dispatched is the backend's business: a
    # caller who wants other than the default builds the scheduler.
    assert _options(AsyncGateway.__init__) == [
        "backend",
        "classes",
        "default_class",
        "max_queue_per_class",
        "max_inflight",
        "shed_expired",
        "degrader",
        "clock",
        "stats",
    ]


def test_semantic_runtime_options():
    assert _options(SemanticRuntime.__init__) == ["provider", "cache", "model", "batch"]


def test_vectordb_exports():
    assert repro.vectordb.__all__ == VECTORDB
    assert all(hasattr(repro.vectordb, name) for name in VECTORDB)


def test_exact_ivf_index_has_no_search_knob():
    # How a search scans — cluster groups or one flat pass — is chosen per
    # query from the bounds it computes, never by the caller.
    assert _options(ExactIVFIndex.__init__) == [
        "dim",
        "metric",
        "seed",
        "train_threshold",
        "train_sample",
        "retrain_fraction",
    ]
