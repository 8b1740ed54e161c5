"""Versioned snapshot codecs for the stateful serving components.

Three components hold serving state worth surviving a restart, and each
gets a ``snapshot_*`` / ``restore_*_into`` pair:

* :class:`~repro.core.cache.SemanticCache` — entries (with hit counters,
  LRFU clock values, insertion order and, when set, the completion a reuse
  hit replays), aggregate stats, the eviction clock, and the admission
  predictor's ring when one is attached.
  **Embeddings are not stored**: the embedding model is a pure function of
  the text, so restore re-embeds each key and provably reproduces the
  original vectors bit for bit.
* :class:`~repro.llm.client.UsageMeter` — totals and the per-model ledger.
* :class:`~repro.serving.stats.ServiceStats` — every counter, including
  the latency histogram's buckets and the budget layer's spend (the only
  copy of it), and every per-tenant namespace under ``"tenants"``.

All payloads are plain JSON. Python's ``json`` round-trips floats through
``repr`` (shortest exact representation), so every float restores to the
identical IEEE-754 double — the bit-identity the recovery benchmark
asserts end to end.

:func:`snapshot_stack_state` / :func:`restore_stack_state` lift the codecs
to a whole :class:`~repro.serving.stack.ServingStack` by walking its
middleware chain (``provider.inner…``) and snapshotting whichever stateful
layers are installed. Payloads written before cache entries carried their
completions keep them in a separate ``replay`` section, which restore
still reads.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.core.cache import AdmissionPredictor, CacheEntry, CacheStats, SemanticCache
from repro.llm.client import Completion, Usage, UsageMeter
from repro.serving.stats import LatencyHistogram, ServiceStats

SNAPSHOT_SCHEMA = "repro.durability/v1"

_CACHE_STATS_FIELDS = (
    "lookups",
    "reuse_hits",
    "augment_hits",
    "misses",
    "evictions",
    "cost_saved",
)
_ENTRY_FIELDS = (
    "key",
    "response",
    "kind",
    "cost_of_miss",
    "reuse_hits",
    "augment_hits",
    "last_access",
    "inserted_at",
    "crf",
    "crf_updated_at",
)
_METER_FIELDS = ("calls", "prompt_tokens", "completion_tokens", "cost")
# ServiceStats fields that are not counters (or not serializable).
# Histogram fields are serialized explicitly (see snapshot_stats).
# Tenant namespaces are serialized under "tenants" with this same codec.
_STATS_SKIP = ("_lock", "_tenants", "latency_hist", "gateway_queue_wait_hist")
# Dict-valued stats fields whose keys are ints (JSON forces string keys).
_STATS_INT_KEYS = ("scheduler_batch_sizes", "scheduler_queue_depths")


# ============================================================== SemanticCache


def snapshot_cache(cache: SemanticCache) -> Dict[str, object]:
    """Serializable snapshot of a cache's full logical state.

    Flushes the cache's write-behind put buffer first, so a snapshot never
    observes (or strands) half-materialized entries: every entry it
    records is embedded and indexed exactly as a probe would see it."""
    with cache._lock:
        cache._flush_puts()
        entries = []
        for entry in cache.entries.values():
            stored = {field: getattr(entry, field) for field in _ENTRY_FIELDS}
            if entry.completion is not None:
                stored["completion"] = completion_to_dict(entry.completion)
            entries.append(stored)
        data: Dict[str, object] = {
            "capacity": cache.capacity,
            "reuse_threshold": cache.reuse_threshold,
            "augment_threshold": cache.augment_threshold,
            "policy": cache.policy.value,
            "lrfu_lambda": cache.lrfu_lambda,
            "embedding_dim": cache.embedder.dim,
            "clock": cache._clock,
            "admission_rejects": cache.admission_rejects,
            "stats": {field: getattr(cache.stats, field) for field in _CACHE_STATS_FIELDS},
            "entries": entries,
        }
        if cache.admission is not None:
            data["admission"] = _snapshot_admission(cache.admission)
    return data


def _snapshot_admission(predictor: AdmissionPredictor) -> Dict[str, object]:
    with predictor._lock:
        live = min(predictor._count, predictor.history)
        return {
            "history": predictor.history,
            "similarity_threshold": predictor.similarity_threshold,
            "admit_subqueries": predictor.admit_subqueries,
            "embedding_dim": predictor.embedder.dim,
            "count": predictor._count,
            "next": predictor._next,
            "rows": [[float(v) for v in predictor._ring[i]] for i in range(live)],
        }


def _restore_admission(predictor: AdmissionPredictor, data: Dict[str, object]) -> None:
    import numpy as np

    if int(data["history"]) != predictor.history or int(data["embedding_dim"]) != predictor.embedder.dim:
        raise ValueError(
            "admission snapshot was taken with a different history/dim "
            f"({data['history']}/{data['embedding_dim']} vs "
            f"{predictor.history}/{predictor.embedder.dim})"
        )
    with predictor._lock:
        predictor._ring[:] = 0.0
        predictor._ring_norms[:] = 0.0
        for i, row in enumerate(data["rows"]):  # type: ignore[union-attr]
            predictor._ring[i] = np.asarray(row, dtype=np.float64)
            predictor._ring_norms[i] = float(np.linalg.norm(predictor._ring[i]))
        predictor._count = int(data["count"])
        predictor._next = int(data["next"])


def restore_cache_into(cache: SemanticCache, data: Dict[str, object]) -> None:
    """Load a :func:`snapshot_cache` payload into ``cache``, replacing its
    contents through :meth:`SemanticCache._load_entries`, which re-derives
    the embeddings from the keys and rebuilds the vector index and the
    eviction order. The cache's configuration must match the snapshot's —
    recovery into a differently-tuned cache would silently change
    behavior, so it raises instead."""
    config_checks = (
        ("capacity", cache.capacity),
        ("reuse_threshold", cache.reuse_threshold),
        ("augment_threshold", cache.augment_threshold),
        ("policy", cache.policy.value),
        ("lrfu_lambda", cache.lrfu_lambda),
        ("embedding_dim", cache.embedder.dim),
    )
    for key, live in config_checks:
        if data[key] != live:
            raise ValueError(
                f"cache snapshot {key}={data[key]!r} does not match the "
                f"live cache's {key}={live!r}"
            )
    entries = [
        CacheEntry(
            key=stored["key"],
            embedding=None,
            response=stored["response"],
            kind=stored["kind"],
            cost_of_miss=stored["cost_of_miss"],
            reuse_hits=int(stored["reuse_hits"]),
            augment_hits=int(stored["augment_hits"]),
            last_access=int(stored["last_access"]),
            inserted_at=int(stored["inserted_at"]),
            crf=float(stored["crf"]),
            crf_updated_at=int(stored["crf_updated_at"]),
            completion=completion_from_dict(stored["completion"]) if "completion" in stored else None,
        )
        for stored in data["entries"]  # type: ignore[union-attr]
    ]
    stats = data["stats"]
    with cache._lock:
        cache._load_entries(
            entries,
            stats=CacheStats(**{field: stats[field] for field in _CACHE_STATS_FIELDS}),
            clock=int(data["clock"]),
        )
        cache.admission_rejects = int(data["admission_rejects"])
        if cache.admission is not None and "admission" in data:
            _restore_admission(cache.admission, data["admission"])  # type: ignore[arg-type]


# ================================================================ UsageMeter


def snapshot_meter(meter: UsageMeter) -> Dict[str, object]:
    """Serializable snapshot of a usage meter's totals and ledger."""
    with meter._lock:
        data = {field: getattr(meter, field) for field in _METER_FIELDS}
        data["per_model"] = {model: dict(entry) for model, entry in meter.per_model.items()}
    return data


def restore_meter_into(meter: UsageMeter, data: Dict[str, object]) -> None:
    """Load a :func:`snapshot_meter` payload, replacing the meter's state."""
    with meter._lock:
        for field in _METER_FIELDS:
            setattr(meter, field, data[field])
        meter.per_model.clear()
        for model, entry in data["per_model"].items():  # type: ignore[union-attr]
            meter.per_model[model] = dict(entry)


# ============================================================== ServiceStats


def _snapshot_histogram(hist: LatencyHistogram) -> Dict[str, object]:
    return {
        "edges": list(hist.edges),
        "counts": list(hist.counts),
        "total": hist.total,
        "sum_ms": hist.sum_ms,
        "max_ms": hist.max_ms,
    }


def _restore_histogram(data: Dict[str, object]) -> LatencyHistogram:
    hist = LatencyHistogram()
    hist.edges = [float(edge) for edge in data["edges"]]  # type: ignore[union-attr]
    hist.counts = [int(count) for count in data["counts"]]  # type: ignore[union-attr]
    hist.total = int(data["total"])
    hist.sum_ms = float(data["sum_ms"])
    hist.max_ms = float(data["max_ms"])
    return hist


def snapshot_stats(stats: ServiceStats) -> Dict[str, object]:
    """Serializable snapshot of every ServiceStats counter, with each
    per-tenant namespace nested under ``"tenants"``."""
    with stats.lock:
        data: Dict[str, object] = {}
        for name in stats.__dataclass_fields__:
            if name in _STATS_SKIP:
                continue
            value = getattr(stats, name)
            if isinstance(value, dict):
                value = {
                    str(key): (dict(inner) if isinstance(inner, dict) else inner)
                    for key, inner in value.items()
                }
            data[name] = value
        data["latency_hist"] = _snapshot_histogram(stats.latency_hist)
        data["gateway_queue_wait_hist"] = _snapshot_histogram(
            stats.gateway_queue_wait_hist
        )
    data["tenants"] = {
        name: snapshot_stats(stats.tenant(name)) for name in stats.tenant_names()
    }
    return data


def restore_stats_into(stats: ServiceStats, data: Dict[str, object]) -> None:
    """Load a :func:`snapshot_stats` payload, replacing every counter.
    The lock survives, and each tenant payload is loaded into
    ``stats.tenant(name)``, so a namespace object a layer already holds
    stays the one it writes to."""
    with stats.lock:
        for name in stats.__dataclass_fields__:
            if name in _STATS_SKIP or name not in data:
                continue
            value = data[name]
            if isinstance(value, dict):
                if name in _STATS_INT_KEYS:
                    value = {int(key): inner for key, inner in value.items()}
                else:
                    value = {
                        key: (dict(inner) if isinstance(inner, dict) else inner)
                        for key, inner in value.items()
                    }
            setattr(stats, name, value)
        stats.latency_hist = _restore_histogram(data["latency_hist"])  # type: ignore[arg-type]
        # Tolerate snapshots written before the gateway existed.
        if "gateway_queue_wait_hist" in data:
            stats.gateway_queue_wait_hist = _restore_histogram(
                data["gateway_queue_wait_hist"]  # type: ignore[arg-type]
            )
    for name, child in data.get("tenants", {}).items():  # type: ignore[union-attr]
        restore_stats_into(stats.tenant(name), child)


# ================================================================ Completion


def completion_to_dict(completion: Completion) -> Dict[str, object]:
    """Serialize a completion (the one a cache entry replays on a reuse hit)."""
    return {
        "text": completion.text,
        "model": completion.model,
        "prompt_tokens": completion.usage.prompt_tokens,
        "completion_tokens": completion.usage.completion_tokens,
        "cost": completion.cost,
        "latency_ms": completion.latency_ms,
        "confidence": completion.confidence,
        "engine": completion.engine,
        "metadata": completion.metadata,
    }


def completion_from_dict(data: Dict[str, object]) -> Completion:
    return Completion(
        text=data["text"],
        model=data["model"],
        usage=Usage(
            prompt_tokens=int(data["prompt_tokens"]),
            completion_tokens=int(data["completion_tokens"]),
        ),
        cost=float(data["cost"]),
        latency_ms=float(data["latency_ms"]),
        confidence=float(data["confidence"]),
        engine=data["engine"],
        metadata=dict(data["metadata"]),  # type: ignore[arg-type]
    )


# ============================================================== ServingStack


def _iter_layers(provider: object) -> Iterator[object]:
    node = provider
    while node is not None:
        yield node
        node = getattr(node, "inner", None)


def _find_layer(stack: object, cls: type) -> Optional[object]:
    for node in _iter_layers(stack.provider):  # type: ignore[attr-defined]
        if isinstance(node, cls):
            return node
    return None


def _find_meter(stack: object) -> Optional[UsageMeter]:
    for node in _iter_layers(stack.provider):  # type: ignore[attr-defined]
        meter = getattr(node, "meter", None)
        if isinstance(meter, UsageMeter):
            return meter
    return None


def snapshot_stack_state(stack: object) -> Dict[str, object]:
    """Snapshot every stateful layer a serving stack actually has.

    The payload's ``state`` section holds one sub-document per component
    found: ``cache`` (the cache layer's entries with their completions),
    ``meter`` (the terminal client's usage meter) and ``stats``, which also
    carries the budget layer's spend. The ``layers`` list pins the
    stack shape so recovery into a differently-composed stack fails loudly
    instead of silently dropping state.
    """
    from repro.serving.middleware import SemanticCacheMiddleware

    state: Dict[str, object] = {"stats": snapshot_stats(stack.stats)}  # type: ignore[attr-defined]
    cache_mw = _find_layer(stack, SemanticCacheMiddleware)
    if cache_mw is not None:
        state["cache"] = snapshot_cache(cache_mw.cache)
    meter = _find_meter(stack)
    if meter is not None:
        state["meter"] = snapshot_meter(meter)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "layers": list(stack.layers),  # type: ignore[attr-defined]
        "state": state,
    }


def restore_stack_state(stack: object, payload: Dict[str, object]) -> None:
    """Load a :func:`snapshot_stack_state` payload into a freshly built
    stack of the same composition. The ``budget`` section older payloads
    carry is ignored: their ``stats`` section holds the same spend."""
    from repro.serving.middleware import SemanticCacheMiddleware

    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unknown snapshot schema: {payload.get('schema')!r}")
    # The last entry is the terminal client's class name. It is stateless
    # and allowed to differ — recovering after a CrashPoint-injected run
    # rebuilds over a plain client — so only the middleware shape is pinned.
    snap_layers = list(payload.get("layers", []))
    if snap_layers[:-1] != list(stack.layers)[:-1]:  # type: ignore[attr-defined]
        raise ValueError(
            f"snapshot was taken of a {snap_layers} stack but the "
            f"live stack is {stack.layers} — rebuild with the same layers"  # type: ignore[attr-defined]
        )
    state: Dict[str, object] = payload["state"]  # type: ignore[assignment]
    restore_stats_into(stack.stats, state["stats"])  # type: ignore[attr-defined, arg-type]
    if "cache" in state:
        cache_mw = _find_layer(stack, SemanticCacheMiddleware)
        if cache_mw is None:
            raise ValueError("snapshot has cache state but the stack has no cache layer")
        # Older payloads keep the completions in a ``replay`` section: each
        # goes onto the entry that still holds its text, never a refreshed one.
        replay: Dict[str, Dict[str, object]] = state.get("replay", {})  # type: ignore[assignment]
        cache_state = dict(state["cache"])  # type: ignore[arg-type]
        cache_state["entries"] = [
            {**stored, "completion": replay[stored["key"]]}
            if replay.get(stored["key"], {}).get("text") == stored["response"]
            else stored
            for stored in cache_state["entries"]  # type: ignore[union-attr]
        ]
        restore_cache_into(cache_mw.cache, cache_state)
    if "meter" in state:
        meter = _find_meter(stack)
        if meter is not None:
            restore_meter_into(meter, state["meter"])  # type: ignore[arg-type]


_COMPARABLE_DROP = ("cache_lookup_ms", "cache_put_ms")


def comparable_state(payload: Dict[str, object]) -> Dict[str, object]:
    """The deterministic portion of a stack snapshot, for equality checks.

    Almost everything in a snapshot is a pure function of the request
    stream; the exceptions are the two wall-clock counters the cache
    middleware measures (``cache_lookup_ms`` / ``cache_put_ms``), which
    this strips so crashed-and-recovered runs can be compared bit for bit
    against uncrashed ones. The terminal client's class name (the last
    ``layers`` entry) is normalized for the same reason: a fault-injected
    run wraps the client in :class:`~repro.llm.faults.CrashPoint` but its
    state is identical to a plain client's.
    """
    import copy

    out = copy.deepcopy(payload)
    layers = out.get("layers")
    if isinstance(layers, list) and layers:
        layers[-1] = "<client>"
    stats: Dict[str, object] = out.get("state", {}).get("stats", {})  # type: ignore[union-attr]
    for field in _COMPARABLE_DROP:
        stats.pop(field, None)
    return out
