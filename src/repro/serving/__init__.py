"""repro.serving — the composable LLM serving stack (Section III, unified).

The paper's Section III treats prompt/query/cache optimization and output
validation as layers a data-management system composes *around* an LLM
service. This package is that seam: a :class:`CompletionProvider` protocol
(the ``complete`` / ``complete_batch`` / ``embed`` surface of
:class:`~repro.llm.client.LLMClient`) plus middleware implementing each
optimization as a layer over any provider:

>>> from repro.llm import LLMClient
>>> from repro.serving import build_stack
>>> stack = build_stack(LLMClient(), cache=True, chain=("babbage-002", "gpt-4"))
>>> stack.describe()
'cache -> cascade -> metrics -> LLMClient'

Every application in :mod:`repro.apps` accepts any provider, so the same
workload runs against a bare client or a full
cache→cascade→resilience→budget pipeline without code changes;
:class:`ServiceStats` snapshots what each layer did. A bare ``LLMClient`` *is* a valid provider and behaves
bit-identically with or without this package installed around it.

For traffic from many threads, put a :class:`BatchingScheduler` (a FIFO
queue drained by a dispatcher pool) in front of any stack: ``submit()``
returns a future that resolves as soon as its answer is back, and with one
dispatch worker ``complete_many()`` is bit-identical to the serial loop.

Backends fail, and answers fail checks; :class:`ResilienceMiddleware`
(``resilience=True`` in :func:`build_stack`) is the one retry loop. It
absorbs :class:`~repro.errors.TransientLLMError` failures with
deterministic capped backoff, per-model circuit breakers and a
graceful-degradation fallback chain, and with
``ResilienceConfig(validator=...)`` it redraws rejected completions
within the same attempt budget — see
:mod:`repro.serving.resilience` and the chaos benchmark
(:func:`repro.bench.perf.run_chaos`).

One stack serves one client; :class:`ServingCluster`
(:mod:`repro.serving.cluster`) is the scale-out tier: N stack replicas
behind a consistent-hash :class:`ClusterRouter`, a sharded multi-tenant
semantic cache, and per-tenant budgets/quotas with ``tenant=``-namespaced
stats — byte-equivalent to the single stack at any shard count.
"""

from repro.llm.provider import CompletionProvider, ReseedableProvider, make_client
from repro.serving.cluster import (
    ClusterLookup,
    ClusterRouter,
    ServingCluster,
    ShardedSemanticCache,
    TenantPolicy,
)
from repro.serving.gateway import (
    AsyncGateway,
    GatewayRequest,
    GatewayTicket,
)
from repro.serving.middleware import (
    BudgetMiddleware,
    CascadeMiddleware,
    MetricsMiddleware,
    Middleware,
    SemanticCacheMiddleware,
    last_question_key,
)
from repro.serving.resilience import ResilienceConfig, ResilienceMiddleware
from repro.serving.scheduler import BatchingScheduler, shared_prefix
from repro.serving.stack import ServingStack, build_stack
from repro.serving.stats import LatencyHistogram, ServiceStats

__all__ = [
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
