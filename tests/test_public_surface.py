"""The public surface, pinned: growing it is a reviewed diff, not an accident."""

import ast
import inspect
from pathlib import Path

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
    "Journal",
    "SNAPSHOT_SCHEMA",
    "StackDurability",
    "atomic_write_json",
    "atomic_write_text",
    "comparable_state",
    "restore_stack_state",
    "snapshot_stack_state",
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
    # The naive per-row reference is SemanticRuntime.naive(), not an option.
    assert _options(SemanticRuntime.__init__) == ["provider", "cache", "model"]


def test_vectordb_exports():
    assert repro.vectordb.__all__ == VECTORDB
    assert all(hasattr(repro.vectordb, name) for name in VECTORDB)


def test_semantic_cache_options():
    # Which entry a full cache evicts is the policy's alone; the eviction
    # heap that finds it is not something a caller picks or tunes, and the
    # cache owns its exact FlatIndex.
    assert _options(SemanticCache.__init__) == [
        "capacity",
        "reuse_threshold",
        "augment_threshold",
        "policy",
        "embedding_dim",
        "lrfu_lambda",
        "admission",
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
    # Shards are shard-0..n-1 on a fixed ring, the key is the prompt, and
    # the sharded cache and the stats are the cluster's own.
    assert _options(ServingCluster.__init__) == [
        "provider_factory",
        "n_shards",
        "tenant_capacity",
        "reuse_threshold",
        "augment_threshold",
        "eviction_policy",
        "sharing",
        "policies",
    ]


#: Every callable whose options a test above pins.
PINNED = [
    AsyncGateway.__init__,
    BatchingScheduler.__init__,
    SemanticRuntime.__init__,
    SemanticCache.__init__,
    SemanticCache.put,
    ShardedSemanticCache.put,
    build_stack,
    ServingCluster.__init__,
]

#: Pinned options that nothing outside the tests passes, each kept for a reason.
UNCALLED = {
    "AsyncGateway.max_inflight": "the end-to-end benchmark passes it through **gateway_options",
    "AsyncGateway.clock": "planned caller: the simulated clock of ROADMAP item 4",
    "BatchingScheduler.combine": "planned caller: shared-prefix request batching, ROADMAP item 2",
    "SemanticCache.admission": "the paper's predictive cache admission (Section III-C)",
    "build_stack.durable_sync": "fsync is a durability deployment setting, kept for safety",
    "ServingCluster.eviction_policy": "the paper's cache replacement policy (Section III-C)",
}

_REPO = Path(__file__).resolve().parents[1]


def _call_sites():
    """``(callee name, ast.Call)`` for every call outside the tests under
    ``src/``, ``examples/`` and ``benchmarks/``. A callee is named by its
    last attribute (receivers are not typed), and ``cls(...)`` inside a
    classmethod calls the enclosing class."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.classes = []
            self.in_classmethod = False

        def visit_ClassDef(self, node):
            self.classes.append(node.name)
            self.generic_visit(node)
            self.classes.pop()

        def visit_FunctionDef(self, node):
            outer = self.in_classmethod
            self.in_classmethod = any(
                isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list
            )
            self.generic_visit(node)
            self.in_classmethod = outer

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "cls" and self.in_classmethod and self.classes:
                name = self.classes[-1]
            sites.append((name, node))
            self.generic_visit(node)

    for root in ("src", "examples", "benchmarks"):
        for path in sorted((_REPO / root).rglob("*.py")):
            if "tests" in path.relative_to(_REPO).parts or path.name.startswith("test_"):
                continue
            Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return sites


def test_every_pinned_option_has_a_caller_that_is_not_a_test():
    sites = _call_sites()
    options, uncalled = set(), set()
    for pinned in PINNED:
        owner = pinned.__qualname__.split(".")[0]
        callee = owner if pinned.__name__ == "__init__" else pinned.__name__
        prefix = owner if pinned.__name__ == "__init__" else pinned.__qualname__
        params = _options(pinned)
        passed = set()
        for name, call in sites:
            if name != callee:
                continue
            for slot, arg in zip(params, call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add(slot)
            passed.update(keyword.arg for keyword in call.keywords)
        options.update(f"{prefix}.{param}" for param in params)
        uncalled.update(f"{prefix}.{param}" for param in params if param not in passed)
    assert uncalled - set(UNCALLED) == set(), "delete these options or give them a caller"
    assert set(UNCALLED) - options == set(), "these exceptions are no longer options"
    assert set(UNCALLED) - uncalled == set(), "these exceptions have a caller now"
