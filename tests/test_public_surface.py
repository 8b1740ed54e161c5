"""The public surface, pinned: growing it is a reviewed diff, not an accident."""

import inspect

import repro.bench
import repro.core
import repro.durability
import repro.llm
import repro.serving
import repro.sqldb
import repro.vectordb
from repro.core import SemanticCache
from repro.serving import (
    AsyncGateway,
    BatchingScheduler,
    ServingCluster,
    ShardedSemanticCache,
    build_stack,
)
from repro.sqldb import SemanticRuntime

SERVING = [
    "AsyncGateway",
    "BatchingScheduler",
    "BudgetMiddleware",
    "CascadeMiddleware",
    "ClusterLookup",
    "ClusterRouter",
    "CompletionProvider",
    "GatewayRequest",
    "GatewayTicket",
    "LatencyHistogram",
    "MetricsMiddleware",
    "Middleware",
    "ReseedableProvider",
    "ResilienceConfig",
    "ResilienceMiddleware",
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
    "FilterStrategy",
    "FlatIndex",
    "HNSWIndex",
    "IVFIndex",
    "Metric",
    "MetadataFilter",
    "SearchHit",
    "SearchReport",
    "TuningResult",
    "measure_recall",
    "tune_ef_search",
    "tune_nprobe",
]

LLM = [
    "Completion",
    "CompletionProvider",
    "EmbeddingModel",
    "FAULT_KINDS",
    "Fact",
    "FaultInjectingProvider",
    "KnowledgeBase",
    "LLMClient",
    "MODEL_REGISTRY",
    "ModelSpec",
    "ReseedableProvider",
    "Usage",
    "UsageMeter",
    "make_client",
    "count_tokens",
    "embed_text",
    "get_model",
    "list_models",
    "resolve_model_name",
    "tokenize_text",
]

SQLDB = [
    "Column",
    "Database",
    "EstimatedCost",
    "Result",
    "SQLType",
    "SemanticOpCost",
    "SemanticRuntime",
    "SemanticStats",
    "Table",
    "TableSchema",
    "estimate_cost",
    "explain",
    "optimize_semantic",
    "parse_expression",
    "parse_sql",
    "parse_statement",
    "query_features",
    "select_contains_semantic",
]

DURABILITY = [
    "DurableStateStore",
    "Journal",
    "SNAPSHOT_SCHEMA",
    "StackDurability",
    "atomic_write_json",
    "atomic_write_text",
    "comparable_state",
    "completion_from_dict",
    "completion_to_dict",
    "restore_cache_into",
    "restore_meter_into",
    "restore_stack_state",
    "restore_stats_into",
    "snapshot_cache",
    "snapshot_meter",
    "snapshot_stack_state",
    "snapshot_stats",
]

BENCH = [
    "HotpathReport",
    "LinearScanAdmission",
    "LinearScanCache",
    "SemanticSQLReport",
    "run_equivalence",
    "run_hotpaths",
    "run_semantic_sql",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "format_table",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_table3",
]


def _options(callable_):
    return [name for name in inspect.signature(callable_).parameters if name != "self"]


def test_serving_exports():
    assert repro.serving.__all__ == SERVING
    assert all(hasattr(repro.serving, name) for name in SERVING)


def test_core_exports():
    assert repro.core.__all__ == CORE
    assert all(hasattr(repro.core, name) for name in CORE)


def test_llm_exports():
    assert repro.llm.__all__ == LLM
    assert all(hasattr(repro.llm, name) for name in LLM)


def test_sqldb_exports():
    assert repro.sqldb.__all__ == SQLDB
    assert all(hasattr(repro.sqldb, name) for name in SQLDB)


def test_durability_exports():
    assert repro.durability.__all__ == DURABILITY
    assert all(hasattr(repro.durability, name) for name in DURABILITY)


def test_bench_exports():
    # Serving throughput, gateway goodput and cluster scaling are measured by
    # the end-to-end benchmark; the package keeps only what it cannot run.
    assert repro.bench.__all__ == BENCH
    assert all(hasattr(repro.bench, name) for name in BENCH)


def test_gateway_has_no_scheduler_knobs():
    # How requests are batched and dispatched is the backend's business:
    # the caller builds the scheduler (or cluster) and closes it.
    assert _options(AsyncGateway.__init__) == [
        "backend",
        "classes",
        "max_queue_per_class",
        "max_inflight",
        "degrader",
        "clock",
    ]


def test_scheduler_options():
    # One dispatch path: every batch runs on the dispatcher threads over
    # the provider the scheduler was given.
    assert _options(BatchingScheduler.__init__) == [
        "provider",
        "max_batch_size",
        "max_wait_ms",
        "workers",
        "max_queue",
        "combine",
        "stats",
    ]


def test_semantic_runtime_options():
    assert _options(SemanticRuntime.__init__) == ["provider", "cache", "model", "batch"]


def test_vectordb_exports():
    assert repro.vectordb.__all__ == VECTORDB
    assert all(hasattr(repro.vectordb, name) for name in VECTORDB)


def test_semantic_cache_options():
    # Which entry a full cache evicts is the policy's alone; the eviction
    # heap that finds it is not something a caller picks or tunes.
    assert _options(SemanticCache.__init__) == [
        "capacity",
        "reuse_threshold",
        "augment_threshold",
        "policy",
        "embedding_dim",
        "lrfu_lambda",
        "admission",
        "index",
    ]


def test_cache_put_arguments():
    # A put carries the entry's data; the completion a reuse hit replays is
    # one of them, and nothing else rides along.
    assert _options(SemanticCache.put) == ["query", "response", "kind", "cost", "completion"]
    assert _options(ShardedSemanticCache.put) == [
        "tenant",
        "key",
        "response",
        "kind",
        "cost",
        "completion",
    ]


def test_build_stack_options():
    assert _options(build_stack) == [
        "client",
        "cache",
        "cache_key_fn",
        "chain",
        "decision_models",
        "budget_usd",
        "resilience",
        "stats",
        "durable_dir",
        "checkpoint_every",
        "durable_sync",
    ]


def test_cluster_options():
    assert _options(ServingCluster.__init__) == [
        "provider_factory",
        "n_shards",
        "shard_names",
        "vnodes",
        "cache",
        "key_fn",
        "tenant_capacity",
        "reuse_threshold",
        "augment_threshold",
        "eviction_policy",
        "sharing",
        "policies",
        "stats",
    ]
