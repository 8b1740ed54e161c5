"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned ASCII table (the harness's stdout format)."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("-+-".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_service_stats(stats) -> str:
    """Render a :class:`repro.serving.ServiceStats` snapshot, layer by layer.

    Duck-typed on :meth:`snapshot` so this module needs no import of the
    serving layer (``serving`` depends on ``bench.reporting``, not the
    other way around)."""
    snapshot = stats.snapshot()
    rows = []
    llm = snapshot["llm"]
    cache = snapshot["cache"]
    cascade = snapshot["cascade"]
    budget = snapshot["budget"]
    rows.append(("cache", "reuse hits", cache["reuse_hits"]))
    rows.append(("cache", "augment hits", cache["augment_hits"]))
    rows.append(("cache", "misses", cache["misses"]))
    rows.append(("cache", "hit rate", cache["hit_rate"]))
    rows.append(("cache", "cost saved ($)", cache["cost_saved_usd"]))
    rows.append(("cache", "lookup time (ms)", cache["lookup_ms"]))
    rows.append(("cache", "mean lookup (ms)", cache["mean_lookup_ms"]))
    rows.append(("cache", "put time (ms)", cache["put_ms"]))
    rows.append(("cascade", "requests", cascade["requests"]))
    rows.append(("cascade", "escalations", cascade["escalations"]))
    for model, count in cascade["answered_by"].items():
        rows.append(("cascade", f"answered by {model}", count))
    if budget["limit_usd"] is not None:
        rows.append(("budget", "limit ($)", budget["limit_usd"]))
        rows.append(("budget", "spent ($)", budget["spent_usd"]))
        rows.append(("budget", "rejections", budget["rejections"]))
    resilience = snapshot.get("resilience", {})
    if (
        resilience.get("transient_errors")
        or resilience.get("validation_rejections")
        or resilience.get("breaker_short_circuits")
    ):
        rows.append(("resilience", "transient errors", resilience["transient_errors"]))
        for kind, count in resilience["by_kind"].items():
            rows.append(("resilience", f"  {kind}", count))
        rows.append(("resilience", "retries", resilience["retries"]))
        rows.append(("resilience", "recoveries", resilience["recoveries"]))
        rows.append(("resilience", "validation rejections", resilience["validation_rejections"]))
        rows.append(("resilience", "backoff (ms)", resilience["backoff_ms"]))
        rows.append(("resilience", "breaker opens", resilience["breaker_opens"]))
        rows.append(("resilience", "breaker probes", resilience["breaker_probes"]))
        rows.append(("resilience", "breaker closes", resilience["breaker_closes"]))
        rows.append(("resilience", "short circuits", resilience["breaker_short_circuits"]))
        rows.append(("resilience", "fallback model answers", resilience["fallback_model_answers"]))
        rows.append(("resilience", "fallback cache answers", resilience["fallback_cache_answers"]))
        rows.append(("resilience", "exhausted", resilience["exhausted"]))
    rows.append(("llm", "calls", llm["calls"]))
    rows.append(("llm", "prompt tokens", llm["prompt_tokens"]))
    rows.append(("llm", "completion tokens", llm["completion_tokens"]))
    rows.append(("llm", "cost ($)", llm["cost_usd"]))
    rows.append(("llm", "latency (ms)", llm["latency_ms"]))
    for model, entry in llm["per_model"].items():
        rows.append(("llm", f"{model} calls", int(entry["calls"])))
    latency = snapshot.get("latency", {})
    if latency.get("count"):
        rows.append(("latency", "p50 (ms)", latency["p50_ms"]))
        rows.append(("latency", "p95 (ms)", latency["p95_ms"]))
        rows.append(("latency", "p99 (ms)", latency["p99_ms"]))
        rows.append(("latency", "max (ms)", latency["max_ms"]))
    scheduler = snapshot.get("scheduler", {})
    if scheduler.get("batches"):
        rows.append(("scheduler", "submitted", scheduler["submitted"]))
        rows.append(("scheduler", "completed", scheduler["completed"]))
        rows.append(("scheduler", "batches", scheduler["batches"]))
        rows.append(("scheduler", "mean batch size", scheduler["mean_batch_size"]))
        for size, count in scheduler["batch_sizes"].items():
            rows.append(("scheduler", f"batches of {size}", count))
        depths = scheduler["queue_depths"]
        if depths:
            rows.append(("scheduler", "max queue depth", max(int(d) for d in depths)))
    # Per-tenant namespaces (multi-tenant cluster): one compact block per
    # tenant, keyed as a tenant= dimension on the layer column.
    for tenant, child in snapshot.get("tenants", {}).items():
        layer = f"tenant={tenant}"
        rows.append((layer, "cache lookups", child["cache"]["lookups"]))
        rows.append((layer, "cache hit rate", child["cache"]["hit_rate"]))
        rows.append((layer, "llm calls", child["llm"]["calls"]))
        rows.append((layer, "cost ($)", child["llm"]["cost_usd"]))
        if child["budget"]["limit_usd"] is not None:
            rows.append((layer, "budget limit ($)", child["budget"]["limit_usd"]))
            rows.append((layer, "budget spent ($)", child["budget"]["spent_usd"]))
            rows.append((layer, "budget rejections", child["budget"]["rejections"]))
    return format_table(["Layer", "Counter", "Value"], rows, title="Serving stack stats")


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) < 0.01 and cell != 0:
            return f"{cell:.5f}"
        return f"{cell:.3f}"
    return str(cell)
