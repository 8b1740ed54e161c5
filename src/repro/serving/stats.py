"""Per-layer counters for a serving stack.

One :class:`ServiceStats` instance is shared by every middleware in a
stack; each layer writes only its own counters, so a snapshot reads like a
cross-section of the pipeline: how much traffic the cache absorbed, how far
the cascade escalated, how many rejected completions were re-drawn, and
what the terminal client actually billed.

Stacks may be driven from many threads at once (see
:mod:`repro.serving.scheduler`), so the instance carries one re-entrant
``lock`` that every writer takes around its counter updates. Counters are
never zeroed in place: the budget layer checks its ceiling against
``budget_spent_usd`` itself, so these counters are enforcement state, not
only a report of it. Measure an interval by differencing two snapshots.

Latency is additionally tracked as a :class:`LatencyHistogram` of the *simulated*
per-completion latencies — fixed log-spaced buckets, so p50/p95/p99 are
deterministic functions of the recorded values with no wall-clock
nondeterminism — and the batching scheduler records its batch-size and
queue-depth distributions here as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.llm.client import Usage


class LatencyHistogram:
    """Fixed-bucket latency reservoir with deterministic percentiles.

    Buckets are log-spaced (``start_ms * growth**i``), chosen once at
    construction, so the histogram of a given multiset of samples — and
    therefore every percentile read — is identical no matter the order or
    thread the samples arrived in. Percentiles are reported as the upper
    edge of the first bucket covering the requested rank (a conservative,
    reproducible estimate; no interpolation, no wall clock).
    """

    def __init__(self, start_ms: float = 0.01, growth: float = 1.5, n_buckets: int = 56) -> None:
        if start_ms <= 0 or growth <= 1.0 or n_buckets <= 0:
            raise ValueError("need start_ms > 0, growth > 1, n_buckets > 0")
        self.edges: List[float] = [start_ms * growth**i for i in range(n_buckets)]
        self.counts: List[int] = [0] * (n_buckets + 1)  # final bucket: overflow
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, latency_ms: float) -> None:
        """Add one sample (not thread-safe by itself — callers hold the
        owning :class:`ServiceStats` lock)."""
        value = max(0.0, float(latency_ms))
        lo, hi = 0, len(self.edges)
        while lo < hi:  # first bucket whose upper edge covers the value
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.total += 1
        self.sum_ms += value
        if value > self.max_ms:
            self.max_ms = value

    def percentile(self, p: float) -> float:
        """The upper bucket edge covering the ``p``-th percentile rank,
        clamped to the observed maximum (both are order-independent, so the
        estimate stays deterministic and never undershoots the true value)."""
        if self.total == 0:
            return 0.0
        rank = max(1, int(-(-(p / 100.0) * self.total // 1)))  # ceil, no floats in rank
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                edge = self.edges[i] if i < len(self.edges) else self.max_ms
                return min(edge, self.max_ms)
        return self.max_ms

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.total if self.total else 0.0

    def state_dict(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "sum_ms": self.sum_ms,
            "max_ms": self.max_ms,
        }

    def load_state(self, data: Dict[str, object]) -> None:
        """Replace buckets and totals with :meth:`state_dict` data (under
        the owning :class:`ServiceStats` lock, like :meth:`record`)."""
        self.edges = list(data["edges"])  # type: ignore[call-overload]
        self.counts = list(data["counts"])  # type: ignore[call-overload]
        self.total = data["total"]
        self.sum_ms = data["sum_ms"]
        self.max_ms = data["max_ms"]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.total,
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(self.percentile(50), 4),
            "p95_ms": round(self.percentile(95), 4),
            "p99_ms": round(self.percentile(99), 4),
            "max_ms": round(self.max_ms, 4),
        }


@dataclass
class ServiceStats:
    """Counters recorded by the middleware layers of one serving stack."""

    # Terminal layer (MetricsMiddleware): what reached the LLM service.
    llm_calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    latency_ms: float = 0.0
    per_model: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Distribution of simulated per-completion latencies (deterministic).
    latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram, compare=False)

    # Cache layer.
    cache_lookups: int = 0
    cache_reuse_hits: int = 0
    cache_augment_hits: int = 0
    cache_misses: int = 0
    cache_cost_saved: float = 0.0
    # Wall-clock spent inside the cache layer itself (vector-index probes
    # and admission-gated inserts) — the serving-side view of the hot path
    # that benchmarks/bench_perf_hotpaths.py measures in isolation.
    cache_lookup_ms: float = 0.0
    cache_put_ms: float = 0.0

    # Cascade layer.
    cascade_requests: int = 0
    escalations: int = 0
    answered_by: Dict[str, int] = field(default_factory=dict)

    # Budget layer: the spend a ceiling is checked against lives here, and
    # nowhere else. The cluster's front door also counts a tenant's
    # accepted requests and quota rejections in the tenant's namespace.
    budget_limit_usd: Optional[float] = None
    budget_spent_usd: float = 0.0
    budget_rejections: int = 0
    admitted_requests: int = 0
    quota_rejections: int = 0

    # Resilience layer (repro.serving.resilience): failure handling.
    transient_errors: int = 0
    transient_errors_by_kind: Dict[str, int] = field(default_factory=dict)
    resilience_retries: int = 0  # after a transient error or a rejected output
    resilience_recoveries: int = 0  # requests answered (and accepted) by a retry
    validation_rejections: int = 0  # completions the validator rejected
    backoff_ms: float = 0.0  # simulated backoff + wasted-attempt time
    breaker_opens: int = 0
    breaker_probes: int = 0  # half-open trial requests let through
    breaker_closes: int = 0
    breaker_short_circuits: int = 0  # requests fast-failed to fallback
    fallback_model_answers: int = 0
    fallback_cache_answers: int = 0
    resilience_exhausted: int = 0  # typed error: every recovery failed

    # Scheduler (repro.serving.scheduler): batches and queue depth under load.
    scheduler_submitted: int = 0
    scheduler_completed: int = 0
    scheduler_batches: int = 0
    scheduler_batch_sizes: Dict[int, int] = field(default_factory=dict)
    scheduler_queue_depths: Dict[int, int] = field(default_factory=dict)

    # Gateway (repro.serving.gateway): admission control under overload.
    gateway_submitted: int = 0
    gateway_completed: int = 0
    gateway_shed: int = 0  # expired or predicted-late requests dropped (includes shed_at_submit)
    gateway_shed_at_submit: int = 0  # arrived already expired, never queued
    gateway_degraded: int = 0  # expired or predicted-late in queue, answered via resilience chain
    gateway_late: int = 0  # full answer delivered after its deadline
    gateway_backpressure_waits: int = 0  # submits parked on a full class queue
    # Per-priority-class breakdown: class -> counter dict.
    gateway_by_class: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Queue-wait distribution (enqueue -> dispatch/shed), wall-clock ms.
    gateway_queue_wait_hist: LatencyHistogram = field(
        default_factory=LatencyHistogram, compare=False
    )

    # One lock shared by every layer of the stack.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    # Per-tenant namespaces (see :meth:`tenant`): child ServiceStats keyed
    # by tenant name, registered lazily by the multi-tenant cluster.
    _tenants: Dict[str, "ServiceStats"] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------ locking

    @property
    def lock(self) -> threading.RLock:
        """The stats lock; middleware holds it around counter updates."""
        return self._lock

    def tenant(self, name: str) -> "ServiceStats":
        """The per-tenant namespace for ``name`` (created on first use).

        Namespaces are plain child :class:`ServiceStats` instances: the
        serving cluster records a tenant's cache traffic, LLM calls and
        budget state into its namespace with the same record methods the
        middleware uses, and :meth:`snapshot`/:meth:`render` thread a
        ``tenant=`` dimension through the report. The namespace is the only
        record of the tenant's spend and quota use: the cluster checks its
        budget and quota against these counters."""
        with self._lock:
            child = self._tenants.get(name)
            if child is None:
                child = ServiceStats()
                self._tenants[name] = child
            return child

    def tenant_names(self) -> List[str]:
        """Registered tenant namespaces, sorted."""
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------ recording

    def record_llm_call(
        self, model: str, usage: Usage, cost: float, latency_ms: float
    ) -> None:
        """Accumulate one request that actually hit the terminal client."""
        with self._lock:
            self.llm_calls += 1
            self.prompt_tokens += usage.prompt_tokens
            self.completion_tokens += usage.completion_tokens
            self.cost_usd += cost
            self.latency_ms += latency_ms
            self.latency_hist.record(latency_ms)
            entry = self.per_model.setdefault(
                model, {"calls": 0, "prompt_tokens": 0, "completion_tokens": 0, "cost": 0.0}
            )
            entry["calls"] += 1
            entry["prompt_tokens"] += usage.prompt_tokens
            entry["completion_tokens"] += usage.completion_tokens
            entry["cost"] += cost

    def record_submit(self) -> None:
        """One request accepted by the batching scheduler."""
        with self._lock:
            self.scheduler_submitted += 1

    def record_completion(self) -> None:
        """One scheduler-managed future resolved."""
        with self._lock:
            self.scheduler_completed += 1

    def record_batch(self, size: int, queue_depth: int) -> None:
        """One batch dispatched; sizes/depths feed ``report()``."""
        with self._lock:
            self.scheduler_batches += 1
            self.scheduler_batch_sizes[size] = self.scheduler_batch_sizes.get(size, 0) + 1
            self.scheduler_queue_depths[queue_depth] = (
                self.scheduler_queue_depths.get(queue_depth, 0) + 1
            )

    def _gateway_class(self, priority: str) -> Dict[str, int]:
        """Per-class counter bucket; caller holds the lock."""
        bucket = self.gateway_by_class.get(priority)
        if bucket is None:
            bucket = {"submitted": 0, "completed": 0, "shed": 0, "degraded": 0, "late": 0}
            self.gateway_by_class[priority] = bucket
        return bucket

    def record_gateway_submit(self, priority: str) -> None:
        """One request entered the gateway (counted before admission)."""
        with self._lock:
            self.gateway_submitted += 1
            self._gateway_class(priority)["submitted"] += 1

    def record_gateway_backpressure(self) -> None:
        """One submit parked on a full per-class admission queue."""
        with self._lock:
            self.gateway_backpressure_waits += 1

    def record_gateway_outcome(
        self,
        priority: str,
        status: str,
        queue_wait_ms: float = 0.0,
        late: bool = False,
    ) -> None:
        """Terminal gateway outcome for one request.

        ``status`` is one of ``ok`` (full answer), ``degraded`` (expired, or
        predicted to miss, in queue; answered via the resilience fallback
        chain), ``shed`` (the same, dropped), ``shed_at_submit`` (arrived already
        expired) or ``error`` (backend raised)."""
        with self._lock:
            bucket = self._gateway_class(priority)
            self.gateway_queue_wait_hist.record(queue_wait_ms)
            if status == "ok":
                self.gateway_completed += 1
                bucket["completed"] += 1
            elif status == "degraded":
                self.gateway_degraded += 1
                bucket["degraded"] += 1
            elif status == "shed":
                self.gateway_shed += 1
                bucket["shed"] += 1
            elif status == "shed_at_submit":
                self.gateway_shed += 1
                self.gateway_shed_at_submit += 1
                bucket["shed"] += 1
            if late:
                self.gateway_late += 1
                bucket["late"] += 1

    # ------------------------------------------------------------ reading

    @property
    def cache_hit_rate(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return (self.cache_reuse_hits + self.cache_augment_hits) / self.cache_lookups

    @property
    def cache_mean_lookup_ms(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_lookup_ms / self.cache_lookups

    @property
    def mean_batch_size(self) -> float:
        if self.scheduler_batches == 0:
            return 0.0
        total = sum(size * count for size, count in self.scheduler_batch_sizes.items())
        return total / self.scheduler_batches

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict snapshot, layer by layer (stable keys for reports).

        When per-tenant namespaces are registered (see :meth:`tenant`) the
        snapshot carries an additional ``"tenants"`` section mapping each
        tenant name to its own full snapshot."""
        with self._lock:
            tenants = dict(sorted(self._tenants.items()))
        tenant_section = {name: child.snapshot() for name, child in tenants.items()}
        with self._lock:
            out: Dict[str, object] = {
                "llm": {
                    "calls": self.llm_calls,
                    "prompt_tokens": self.prompt_tokens,
                    "completion_tokens": self.completion_tokens,
                    "cost_usd": round(self.cost_usd, 6),
                    "latency_ms": round(self.latency_ms, 2),
                    "per_model": {m: dict(e) for m, e in sorted(self.per_model.items())},
                },
                "latency": self.latency_hist.snapshot(),
                "cache": {
                    "lookups": self.cache_lookups,
                    "reuse_hits": self.cache_reuse_hits,
                    "augment_hits": self.cache_augment_hits,
                    "misses": self.cache_misses,
                    "hit_rate": round(self.cache_hit_rate, 4),
                    "cost_saved_usd": round(self.cache_cost_saved, 6),
                    "lookup_ms": round(self.cache_lookup_ms, 3),
                    "mean_lookup_ms": round(self.cache_mean_lookup_ms, 4),
                    "put_ms": round(self.cache_put_ms, 3),
                },
                "cascade": {
                    "requests": self.cascade_requests,
                    "escalations": self.escalations,
                    "answered_by": dict(sorted(self.answered_by.items())),
                },
                "budget": {
                    "limit_usd": self.budget_limit_usd,
                    "spent_usd": round(self.budget_spent_usd, 6),
                    "rejections": self.budget_rejections,
                    "requests": self.admitted_requests,
                    "quota_rejections": self.quota_rejections,
                },
                "resilience": {
                    "transient_errors": self.transient_errors,
                    "by_kind": dict(sorted(self.transient_errors_by_kind.items())),
                    "retries": self.resilience_retries,
                    "recoveries": self.resilience_recoveries,
                    "validation_rejections": self.validation_rejections,
                    "backoff_ms": round(self.backoff_ms, 3),
                    "breaker_opens": self.breaker_opens,
                    "breaker_probes": self.breaker_probes,
                    "breaker_closes": self.breaker_closes,
                    "breaker_short_circuits": self.breaker_short_circuits,
                    "fallback_model_answers": self.fallback_model_answers,
                    "fallback_cache_answers": self.fallback_cache_answers,
                    "exhausted": self.resilience_exhausted,
                },
                "scheduler": {
                    "submitted": self.scheduler_submitted,
                    "completed": self.scheduler_completed,
                    "batches": self.scheduler_batches,
                    "mean_batch_size": round(self.mean_batch_size, 4),
                    "batch_sizes": {
                        str(k): v for k, v in sorted(self.scheduler_batch_sizes.items())
                    },
                    "queue_depths": {
                        str(k): v for k, v in sorted(self.scheduler_queue_depths.items())
                    },
                },
                "gateway": {
                    "submitted": self.gateway_submitted,
                    "completed": self.gateway_completed,
                    "shed": self.gateway_shed,
                    "shed_at_submit": self.gateway_shed_at_submit,
                    "degraded": self.gateway_degraded,
                    "late": self.gateway_late,
                    "backpressure_waits": self.gateway_backpressure_waits,
                    "queue_wait": self.gateway_queue_wait_hist.snapshot(),
                    "by_class": {
                        cls: dict(counters)
                        for cls, counters in sorted(self.gateway_by_class.items())
                    },
                },
            }
        if tenant_section:
            out["tenants"] = tenant_section
        return out

    # ------------------------------------------------------------ state

    _HISTOGRAMS = ("latency_hist", "gateway_queue_wait_hist")
    # Fields a state dict leaves out (the lock, the namespaces, which go
    # under "tenants") or stores by their own state_dict (the histograms).
    _STATE_SKIP = ("_lock", "_tenants") + _HISTOGRAMS
    # Dict-valued counters whose keys are ints (JSON forces string keys).
    _INT_KEYED = ("scheduler_batch_sizes", "scheduler_queue_depths")

    def state_dict(self) -> Dict[str, object]:
        """Every counter as plain JSON data, the histograms' buckets too,
        with each per-tenant namespace nested under ``"tenants"``."""
        with self._lock:
            data: Dict[str, object] = {}
            for name in self.__dataclass_fields__:
                if name in self._STATE_SKIP:
                    continue
                value = getattr(self, name)
                if isinstance(value, dict):
                    value = {
                        str(key): (dict(inner) if isinstance(inner, dict) else inner)
                        for key, inner in value.items()
                    }
                data[name] = value
            for name in self._HISTOGRAMS:
                data[name] = getattr(self, name).state_dict()
            tenants = dict(sorted(self._tenants.items()))
        data["tenants"] = {name: child.state_dict() for name, child in tenants.items()}
        return data

    def load_state(self, data: Dict[str, object]) -> None:
        """Replace every counter with :meth:`state_dict` data. The lock
        survives, and each tenant's data is loaded into
        ``self.tenant(name)``, so a namespace object a layer already holds
        stays the one it writes to. Fields the data lacks (it predates
        them) keep their values."""
        with self._lock:
            for name in self.__dataclass_fields__:
                if name in self._STATE_SKIP or name not in data:
                    continue
                value = data[name]
                if isinstance(value, dict):
                    if name in self._INT_KEYED:
                        value = {int(key): inner for key, inner in value.items()}
                    else:
                        value = {
                            key: (dict(inner) if isinstance(inner, dict) else inner)
                            for key, inner in value.items()
                        }
                setattr(self, name, value)
            for name in self._HISTOGRAMS:
                if name in data:
                    getattr(self, name).load_state(data[name])
        for name, child in data.get("tenants", {}).items():  # type: ignore[attr-defined]
            self.tenant(name).load_state(child)

    def render(self) -> str:
        """Human-readable per-layer report (rendered by the bench layer)."""
        from repro.bench.reporting import render_service_stats

        return render_service_stats(self)
