"""From episodes to the metrics declared in BENCHMARK.json.

End-to-end metrics are medians over a run's episodes; per-layer metrics
pool the traced episodes' spans and the counters read off the system's
public attributes. A layer a workload does not touch
reports 0 for every metric it owns.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from e2ebench.measure import (
    MIN_SAMPLES_BEYOND,
    Outcome,
    backlog_growth,
    goodput,
    mean,
    peak_rss_mb,
    percentile,
    samples_beyond,
)
from e2ebench.tracing import Attribution
from e2ebench.workloads import Episode

LAG_LIMIT_MS = 5.0
BACKLOG_LIMIT = 1.5
# Spans are taken outside the system, so what a request's tree misses is
# only what ran between two wrapped calls on a thread nobody wrapped.
ATTRIBUTION_TOLERANCE = 0.05


def _latencies(workload, outcomes: Sequence[Outcome]) -> List[float]:
    """Answered latencies of the classes the workload reports, ascending."""
    classes = workload.latency_classes
    return sorted(
        o.latency_ms
        for o in outcomes
        if o.answered and (classes is None or o.request.cls in classes)
    )


def _pooled(episodes: Sequence[Episode]) -> Tuple[List[Outcome], float, Dict[str, float]]:
    outcomes = [o for e in episodes for o in e.outcomes]
    window_s = sum(e.window_s for e in episodes)
    counters: Dict[str, float] = {}
    for e in episodes:
        for key, value in e.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    return outcomes, window_s, counters


def episode_metrics(workload, episode: Episode) -> Dict[str, float]:
    answered = sum(1 for o in episode.outcomes if o.answered)
    latencies = _latencies(workload, episode.outcomes)
    return {
        "setup_s": episode.setup_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "goodput": goodput(episode.outcomes),
        "throughput_rps": answered / episode.window_s,
        "cost_usd_per_1k": 1000.0 * episode.counters["cost_usd"] / answered,
    }


def end_to_end(workload, episodes: Sequence[Episode]) -> Dict[str, float]:
    """Each metric is the median of its per-episode values: this machine
    stalls for half a second now and then, and a stall that lands in one
    window must not decide the run's p95."""
    per_episode = [episode_metrics(workload, e) for e in episodes]
    metrics = {name: median([m[name] for m in per_episode]) for name in per_episode[0]}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def validity(
    workload, episodes: Sequence[Episode], attributed_share: Optional[float] = None
) -> List[str]:
    """Reasons this run's numbers should not be trusted (empty = valid)."""
    outcomes, _window_s, _counters = _pooled(episodes)
    reasons = []
    # The gated percentile is p95 of an untraced run; a traced run reports
    # only the ungated p99, which is indicative at these sizes.
    beyond = sum(samples_beyond(len(_latencies(workload, e.outcomes)), 95) for e in episodes)
    if attributed_share is None and beyond < MIN_SAMPLES_BEYOND:
        reasons.append(f"p95 has {beyond} samples beyond it (< {MIN_SAMPLES_BEYOND})")
    if workload.open_loop:
        lag = percentile(sorted(o.lag_ms for o in outcomes), 95)
        if lag > LAG_LIMIT_MS:
            reasons.append(f"load generator ran {lag:.2f} ms late at p95 (> {LAG_LIMIT_MS} ms)")
    if workload.name == "steady":
        growth = median([backlog_growth(e.outcomes) for e in episodes])
        if growth > BACKLOG_LIMIT:
            reasons.append(f"backlog grew: last-quarter p50 is {growth:.2f}x the first quarter's")
    if attributed_share is not None and abs(attributed_share - 1.0) > ATTRIBUTION_TOLERANCE:
        reasons.append(
            f"layer self times add up to {attributed_share:.3f} of the mean latency "
            f"(tolerance {ATTRIBUTION_TOLERANCE})"
        )
    return reasons


def _p(values: List[float], p: float) -> float:
    return percentile(sorted(values), p) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _speed(workload, episodes: Sequence[Episode]) -> float:
    """The number tracing slows: p50 latency for an open loop (the rate is
    fixed), time per operation for a closed one."""
    outcomes, window_s, _ = _pooled(episodes)
    if workload.open_loop:
        return percentile(_latencies(workload, outcomes), 50)
    return window_s / max(sum(1 for o in outcomes if o.answered), 1)


def per_layer(
    workload, plain: Sequence[Episode], traced: Sequence[Episode]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of the traced episodes, and the per-operation
    self-time table (ms per attempted operation, by layer) behind them.
    ``plain`` are the same run's untraced episodes, the reference for the
    tracing overhead."""
    outcomes, _window_s, c = _pooled(traced)
    att = Attribution(e.spans for e in traced)
    ops = max(len(outcomes), 1)
    layer_self = {layer: total / ops for layer, total in att.layer_self_ms().items()}

    def self_of(layer: str) -> float:
        return layer_self.get(layer, 0.0)

    def dur_mean(*names: str) -> float:
        return mean(att.durations(*names))

    m: Dict[str, float] = {}

    # serving.gateway — scored from what the caller saw plus ticket.queue_ms
    through_gateway = workload.name != "sql_batch"
    queue_waits = [o.queue_ms for o in outcomes] if through_gateway else []
    m["serving.gateway.queue_wait_ms_p50"] = _p(queue_waits, 50)
    m["serving.gateway.queue_wait_ms_p95"] = _p(queue_waits, 95)
    m["serving.gateway.self_ms_mean"] = self_of("serving.gateway")
    m["serving.gateway.shed_share"] = _share(sum(o.status == "shed" for o in outcomes), ops)
    m["serving.gateway.late_share"] = _share(sum(o.late for o in outcomes), ops)
    for cls in ("interactive", "standard", "batch"):
        m[f"serving.gateway.goodput.{cls}"] = goodput(
            o for o in outcomes if o.request.cls == cls
        )
    m["serving.gateway.latency_p99_ms"] = (
        _p(_latencies(workload, outcomes), 99) if through_gateway else 0.0
    )

    # serving.scheduler
    waits = att.durations("serving.scheduler:request.queue")
    m["serving.scheduler.queue_wait_ms_p50"] = _p(waits, 50)
    m["serving.scheduler.queue_wait_ms_p95"] = _p(waits, 95)
    m["serving.scheduler.batches"] = c.get("sched_batches", 0.0)
    m["serving.scheduler.batch_size_mean"] = _share(
        c.get("sched_completed", 0.0), c.get("sched_batches", 0.0)
    )
    m["serving.scheduler.self_ms_mean"] = self_of("serving.scheduler")

    # serving.cluster
    m["serving.cluster.queue_wait_ms_p50"] = _p(att.durations("serving.cluster:request.queue"), 50)
    m["serving.cluster.self_ms_mean"] = self_of("serving.cluster")
    m["serving.cluster.cache_lookup_ms_mean"] = dur_mean("serving.cluster:cache_lookup")
    m["serving.cluster.cache_put_ms_mean"] = dur_mean("serving.cluster:cache_put")
    by_shard = [v for k, v in c.items() if k.startswith("shard_requests.")]
    m["serving.cluster.shard_imbalance"] = _share(max(by_shard, default=0.0), mean(by_shard))
    m["serving.cluster.ledger_mismatch"] = c.get("ledger_mismatch", 0.0)

    # serving.stack
    m["serving.stack.busy_ms_mean"] = dur_mean("serving.stack:complete")
    m["serving.stack.self_ms_mean"] = self_of("serving.stack")
    m["serving.stack.retries"] = c.get("stack_retries", 0.0)
    m["serving.stack.fallbacks"] = c.get("stack_fallbacks", 0.0)

    # core.cache
    probes = att.durations("core.cache:lookup", "core.cache:peek")
    lookups = c.get("cache_lookups", 0.0)
    m["core.cache.lookup_ms_mean"] = mean(probes)
    m["core.cache.lookup_ms_p95"] = _p(probes, 95)
    m["core.cache.put_ms_mean"] = dur_mean("core.cache:put")
    m["core.cache.self_ms_mean"] = self_of("core.cache")
    m["core.cache.reuse_share"] = _share(c.get("cache_reuse", 0.0), lookups)
    m["core.cache.augment_share"] = _share(c.get("cache_augment", 0.0), lookups)
    m["core.cache.miss_share"] = _share(c.get("cache_misses", 0.0), lookups)
    m["core.cache.evictions"] = c.get("cache_evictions", 0.0)
    m["core.cache.entries_end"] = _share(c.get("cache_entries_end", 0.0), len(traced))

    # llm.embeddings, vectordb
    m["llm.embeddings.embed_calls"] = float(att.calls("llm.embeddings:embed"))
    m["llm.embeddings.embed_ms_mean"] = dur_mean("llm.embeddings:embed")
    m["llm.embeddings.self_ms_mean"] = self_of("llm.embeddings")
    searches = att.durations("vectordb:search")
    m["vectordb.search_calls"] = float(len(searches))
    m["vectordb.search_ms_mean"] = mean(searches)
    m["vectordb.search_ms_p95"] = _p(searches, 95)
    m["vectordb.add_ms_mean"] = dur_mean("vectordb:add")
    m["vectordb.remove_ms_mean"] = dur_mean("vectordb:remove")
    m["vectordb.self_ms_mean"] = self_of("vectordb")

    # llm.provider — the benchmark's own books
    calls = c.get("provider_calls", 0.0)
    m["llm.provider.calls"] = calls
    m["llm.provider.items_per_call_mean"] = _share(c.get("provider_items", 0.0), calls)
    m["llm.provider.busy_ms_mean"] = _share(1000.0 * c.get("provider_busy_s", 0.0), calls)
    m["llm.provider.calls_per_op"] = _share(calls, ops)
    m["llm.provider.self_ms_mean"] = self_of("llm.provider")

    # sqldb
    statements = len(outcomes) if workload.name == "sql_batch" else 0
    m["sqldb.parse_ms_mean"] = mean([ms for e in traced for ms in e.parse_ms])
    m["sqldb.execute_ms_mean"] = dur_mean("sqldb:execute")
    m["sqldb.self_ms_mean"] = self_of("sqldb")
    m["sqldb.prompts_per_stmt"] = _share(c.get("sql_prompts", 0.0), statements)
    m["sqldb.provider_items_per_stmt"] = _share(c.get("sql_provider_items", 0.0), statements)
    m["sqldb.cache_hit_share"] = _share(c.get("sql_cache_hits", 0.0), c.get("sql_prompts", 0.0))

    # bench — validity of the measurement itself
    m["bench.loadgen_lag_p95_ms"] = _p([o.lag_ms for o in outcomes], 95)
    m["bench.trace_overhead_share"] = (
        _speed(workload, traced) / _speed(workload, plain) - 1.0 if plain else 0.0
    )
    m["bench.attributed_share"] = _share(
        sum(layer_self.values()), mean([o.latency_ms for o in outcomes])
    )
    return m, layer_self
