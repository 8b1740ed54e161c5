"""Latency-under-load bench for the async gateway (open-loop Poisson).

The serving benches so far are *closed-loop*: they submit everything up
front and measure the saturated service rate (max QPS). That says nothing
about behavior at a given *offered* load — the regime where SLOs live.
This bench drives :class:`~repro.serving.gateway.AsyncGateway` with an
**open-loop Poisson arrival process** (seeded exponential inter-arrival
times; arrivals never wait on completions) at fractions of the backend's
analytic saturation rate, and measures the latency distribution and
per-class **goodput** — the fraction of offered requests answered in full
*within their deadline*:

* The **gateway** side runs with admission control on: three priority
  classes (EDF within, strict priority across), bounded per-class queues
  with backpressure, and shedding of expired requests.
* The **baseline** side is the same machinery with admission control
  off: one class, no deadlines passed to the scheduler (pure FIFO — no
  EDF sneaking priority back in), nothing ever shed.

Both sides are scored identically and externally: a request counts
toward goodput iff it got a full answer and its measured latency (from
its *intended arrival time*) is within the SLO its class prescribes. At
2x saturation the gateway must keep the interactive class at >= 90%
goodput while the FIFO baseline collapses (unbounded queue wait) —
``check_perf_gate.py`` enforces exactly that, plus zero divergence in
the equivalence cell below.

Determinism is re-proven on every run: the ``equivalence`` cell replays
one request stream through a single-worker no-deadline gateway and
through a serial ``ServingStack.complete`` loop on an identical fresh
stack, and counts any completion that is not bit-identical. The
``degradation`` cell is a deterministic (injected-clock) demo of the
expired-in-queue path routing through the resilience fallback chain.

Saturation is analytic, not measured: every service call sleeps
``service_ms`` wall-clock (GIL released) and ``workers`` dispatcher
threads serve in parallel, so capacity is ``workers * 1000 / service_ms``
requests/second regardless of batching.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import rng_from
from repro.bench.perf import SimulatedServiceProvider, _latency_summary
from repro.bench.reporting import format_table
from repro.errors import DeadlineExceededError
from repro.llm.client import LLMClient
from repro.llm.provider import make_client
from repro.serving.gateway import AsyncGateway, GatewayRequest
from repro.serving.scheduler import BatchingScheduler
from repro.serving.stack import build_stack

DEFAULT_GATEWAY_REPORT_PATH = "BENCH_gateway.json"
GATEWAY_SCHEMA = "repro.bench.gateway/v1"

HIGH_PRIORITY_CLASS = "interactive"

# (class, share of traffic, deadline as a multiple of service_ms; None = no SLO)
DEFAULT_CLASS_MIX: Tuple[Tuple[str, float, Optional[float]], ...] = (
    ("interactive", 0.25, 8.0),
    ("standard", 0.50, 30.0),
    ("batch", 0.25, None),
)

_TOPICS = (
    "schema index join cache shard deadline queue admission priority "
    "latency budget quota backlog drain degrade"
).split()


def make_arrivals(n: int, rate_qps: float, seed: int = 11) -> List[float]:
    """``n`` Poisson arrival offsets (seconds) at ``rate_qps``: seeded
    exponential inter-arrival times, cumulative from t=0."""
    if n <= 0 or rate_qps <= 0:
        raise ValueError("n and rate_qps must be positive")
    rng = rng_from(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=n)
    out: List[float] = []
    total = 0.0
    for gap in gaps:
        total += float(gap)
        out.append(total)
    return out


def make_workload(
    n: int,
    service_ms: float,
    class_mix: Sequence[Tuple[str, float, Optional[float]]] = DEFAULT_CLASS_MIX,
    seed: int = 11,
) -> List[Tuple[str, str, Optional[float]]]:
    """``n`` (prompt, class, deadline_ms) triples with a seeded class mix.

    Prompts are distinct (no cache traffic), so every request pays the
    full simulated service time and the analytic saturation rate holds."""
    rng = rng_from(seed + 1)
    draws = rng.random(n)
    edges: List[Tuple[float, str, Optional[float]]] = []
    upto = 0.0
    for cls, share, factor in class_mix:
        upto += share
        deadline = None if factor is None else factor * service_ms
        edges.append((upto, cls, deadline))
    workload: List[Tuple[str, str, Optional[float]]] = []
    for i in range(n):
        draw = float(draws[i])
        cls, deadline = edges[-1][1], edges[-1][2]
        for cut, candidate_cls, candidate_deadline in edges:
            if draw < cut:
                cls, deadline = candidate_cls, candidate_deadline
                break
        topic = _TOPICS[i % len(_TOPICS)]
        workload.append((f"[{cls}] Question #{i}: about {topic}?", cls, deadline))
    return workload


@dataclass
class _Outcome:
    cls: str
    deadline_ms: Optional[float]
    status: str  # ok | degraded | shed | error
    latency_ms: float

    @property
    def in_deadline(self) -> bool:
        if self.status != "ok":
            return False
        if self.deadline_ms is None:
            return True
        return self.latency_ms <= self.deadline_ms


async def _drive_open_loop(
    gateway: AsyncGateway,
    workload: Sequence[Tuple[str, str, Optional[float]]],
    arrivals: Sequence[float],
    admission: bool,
) -> List[_Outcome]:
    """Spawn one task per arrival; latency counts from the *intended*
    arrival time, so driver lag and queueing both show up in the number."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    outcomes: List[Optional[_Outcome]] = [None] * len(workload)

    async def one(i: int) -> None:
        prompt, cls, deadline = workload[i]
        due = start + arrivals[i]
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if admission:
            request = GatewayRequest(prompt, priority=cls, deadline_ms=deadline)
        else:
            # Baseline: one class, no deadline reaches the queue — pure
            # FIFO, nothing shed; the SLO is scored externally only.
            request = GatewayRequest(prompt)
        status = "ok"
        try:
            ticket = await gateway.enqueue(request)
            await ticket.future
            status = ticket.status  # ok | degraded
        except DeadlineExceededError:
            status = "shed"
        except Exception:
            status = "error"
        latency_ms = (loop.time() - due) * 1000.0
        outcomes[i] = _Outcome(cls, deadline, status, latency_ms)

    await asyncio.gather(*(one(i) for i in range(len(workload))))
    return [outcome for outcome in outcomes if outcome is not None]


def _run_side(
    workload: Sequence[Tuple[str, str, Optional[float]]],
    arrivals: Sequence[float],
    service_ms: float,
    workers: int,
    admission: bool,
    seed: int,
    max_queue_per_class: int,
) -> Dict[str, object]:
    """One (load, side) cell: fresh backend, open-loop drive, summary."""
    provider = SimulatedServiceProvider(
        make_client(), overhead_ms=service_ms, per_item_ms=0.0
    )
    stack = build_stack(provider)

    # workers dispatchers, batches of 4 flushed at once; the baseline's
    # backend queue is as unbounded as its admission queue.
    scheduler = BatchingScheduler(
        stack,
        workers=workers,
        max_batch_size=4,
        max_wait_ms=0.0,
        max_queue=4096 if admission else 10**9,
    )

    async def run() -> Tuple[List[_Outcome], float]:
        if admission:
            gateway = AsyncGateway(
                scheduler,
                classes=tuple(cls for cls, _share, _f in DEFAULT_CLASS_MIX),
                max_queue_per_class=max_queue_per_class,
                degrader=None,  # shed, don't degrade: keeps goodput unambiguous
                # Shallow dispatch window: once forwarded, a request is
                # FIFO inside the backend scheduler, so a deep inflight
                # pipeline would bury the priority decision. workers *
                # batch keeps the workers fed while the backlog stays in
                # the gateway's class queues where EDF/priority apply.
                max_inflight=workers * 4,
            )
        else:
            gateway = AsyncGateway(
                scheduler,
                classes=("all",),
                max_queue_per_class=10**9,
                shed_expired=False,
                degrader=None,
            )
        t0 = time.perf_counter()
        async with gateway:
            outcomes = await _drive_open_loop(gateway, workload, arrivals, admission)
        return outcomes, time.perf_counter() - t0

    with scheduler:
        outcomes, elapsed = asyncio.run(run())
    served = [o.latency_ms for o in outcomes if o.status == "ok"]
    cell = _latency_summary(served or [0.0], elapsed)
    cell["completed"] = sum(1 for o in outcomes if o.status == "ok")
    cell["shed"] = sum(1 for o in outcomes if o.status == "shed")
    cell["degraded"] = sum(1 for o in outcomes if o.status == "degraded")
    cell["errors"] = sum(1 for o in outcomes if o.status == "error")
    cell["goodput"] = round(
        sum(1 for o in outcomes if o.in_deadline) / max(len(outcomes), 1), 4
    )
    classes: Dict[str, Dict[str, object]] = {}
    for cls, _share, _factor in DEFAULT_CLASS_MIX:
        mine = [o for o in outcomes if o.cls == cls]
        if not mine:
            continue
        in_deadline = sum(1 for o in mine if o.in_deadline)
        classes[cls] = {
            "offered": len(mine),
            "completed": sum(1 for o in mine if o.status == "ok"),
            "shed": sum(1 for o in mine if o.status == "shed"),
            "in_deadline": in_deadline,
            "goodput": round(in_deadline / len(mine), 4),
        }
    cell["classes"] = classes
    return cell


# ------------------------------------------------------ deterministic cells


def _equivalence_cell(n: int, seed: int) -> Dict[str, object]:
    """One worker, no deadlines: gateway vs serial loop, bit-for-bit.

    The stream repeats prompts so the semantic cache is live state — any
    reordering by the gateway would flip hit patterns and diverge."""
    pool = [f"Question #{i}: about {_TOPICS[i % len(_TOPICS)]}?" for i in range(n // 3)]
    rng = rng_from(seed + 2)
    picks = rng.integers(0, len(pool), size=n)
    prompts = [pool[int(p)] for p in picks]

    serial_stack = build_stack(LLMClient(seed=seed), cache=True)
    expected = [serial_stack.complete(prompt) for prompt in prompts]

    gateway_stack = build_stack(LLMClient(seed=seed), cache=True)

    async def run() -> List[object]:
        async with AsyncGateway(gateway_stack, classes=("all",)) as gateway:
            return await gateway.complete_all(prompts)

    got = asyncio.run(run())
    diverged = sum(1 for a, b in zip(expected, got) if a != b)
    return {
        "n_requests": n,
        "diverged": diverged,
        "cache_hits_serial": serial_stack.stats.cache_reuse_hits,
        "cache_hits_gateway": gateway_stack.stats.cache_reuse_hits,
    }


class _ManualClock:
    def __init__(self) -> None:
        self.t = 1000.0

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def _degradation_cell(n: int, seed: int) -> Dict[str, object]:
    """Deterministic demo of the shed-vs-degrade decision tree.

    With an injected clock, requests expire in queue before the pump
    runs: a resilience-wired gateway answers them through the fallback
    chain (degraded), while an already-expired arrival is shed outright."""
    stack = build_stack(LLMClient(seed=seed), cache=True, resilience=True)
    clock = _ManualClock()

    async def run() -> Dict[str, int]:
        counts = {"degraded": 0, "shed_at_submit": 0, "served": 0}
        async with AsyncGateway(stack, clock=clock.now) as gateway:
            try:
                await gateway.submit("hopeless on arrival", deadline_ms=0)
            except DeadlineExceededError:
                counts["shed_at_submit"] += 1
            tickets = []
            for i in range(n):
                tickets.append(
                    await gateway.enqueue(
                        GatewayRequest(f"expiring question #{i}?", deadline_ms=5.0)
                    )
                )
            clock.advance(0.010)  # expire every queued request before dispatch
            for ticket in tickets:
                await ticket.future
                counts[ticket.status if ticket.status == "degraded" else "served"] += 1
            completion = await gateway.submit("healthy question?", deadline_ms=60_000)
            counts["served"] += 1 if completion.text else 0
        return counts

    counts = asyncio.run(run())
    return {
        "requests": n + 2,
        "degraded": counts["degraded"],
        "shed_at_submit": counts["shed_at_submit"],
        "served_in_time": counts["served"],
        "fallback_model_answers": stack.stats.fallback_model_answers,
    }


# ------------------------------------------------------------------ report


@dataclass
class GatewayReport:
    """Latency-under-load curves + equivalence/degradation cells."""

    service_ms: float
    workers: int
    saturation_qps: float
    duration_s: float
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)
    equivalence: Dict[str, object] = field(default_factory=dict)
    degradation: Dict[str, object] = field(default_factory=dict)
    smoke: bool = False

    @property
    def diverged(self) -> int:
        return int(self.equivalence.get("diverged", 1))

    def payload(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": GATEWAY_SCHEMA,
            "service_ms": self.service_ms,
            "workers": self.workers,
            "saturation_qps": self.saturation_qps,
            "duration_s": self.duration_s,
            "high_priority_class": HIGH_PRIORITY_CLASS,
            "cells": self.cells,
            "equivalence": self.equivalence,
            "degradation": self.degradation,
        }
        if self.smoke:
            out["smoke"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)

    def write(self, path: str = DEFAULT_GATEWAY_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    def render(self) -> str:
        rows = []
        for load in sorted(self.cells, key=float):
            cell = self.cells[load]
            for side in ("gateway", "baseline"):
                summary = cell[side]
                interactive = summary["classes"].get(HIGH_PRIORITY_CLASS, {})
                rows.append(
                    (
                        f"{load}x",
                        side,
                        summary["qps"],
                        summary["p50_ms"],
                        summary["p95_ms"],
                        summary["p99_ms"],
                        interactive.get("goodput", "-"),
                        summary["shed"],
                    )
                )
        return format_table(
            ["Load", "Side", "QPS", "p50 ms", "p95 ms", "p99 ms", "int. goodput", "Shed"],
            rows,
            title=(
                f"Gateway latency under load (open-loop Poisson, saturation "
                f"{self.saturation_qps:.0f} qps, {self.workers} workers)"
            ),
        )


def run_gateway(
    service_ms: float = 20.0,
    workers: int = 2,
    load_fractions: Sequence[float] = (0.5, 1.0, 2.0),
    duration_s: float = 2.0,
    seed: int = 11,
    max_queue_per_class: int = 64,
    equivalence_n: int = 48,
    degradation_n: int = 6,
    write_path: Optional[str] = None,
    smoke: bool = False,
) -> GatewayReport:
    """Run the load sweep plus the deterministic equivalence/degradation
    cells; one fresh backend per (load, side) cell."""
    saturation = workers * 1000.0 / service_ms
    report = GatewayReport(
        service_ms=service_ms,
        workers=workers,
        saturation_qps=saturation,
        duration_s=duration_s,
        smoke=smoke,
    )
    for fraction in load_fractions:
        offered = saturation * fraction
        n = max(int(duration_s * offered), 20)
        workload = make_workload(n, service_ms, seed=seed)
        arrivals = make_arrivals(n, offered, seed=seed)
        cell: Dict[str, object] = {
            "offered_qps": round(offered, 3),
            "n_requests": n,
        }
        for side, admission in (("gateway", True), ("baseline", False)):
            cell[side] = _run_side(
                workload,
                arrivals,
                service_ms,
                workers,
                admission,
                seed,
                max_queue_per_class,
            )
        report.cells[f"{fraction:g}"] = cell
    report.equivalence = _equivalence_cell(equivalence_n, seed=seed)
    report.degradation = _degradation_cell(degradation_n, seed=seed)
    if write_path is not None:
        report.write(write_path)
    return report


__all__ = [
    "DEFAULT_GATEWAY_REPORT_PATH",
    "GATEWAY_SCHEMA",
    "HIGH_PRIORITY_CLASS",
    "GatewayReport",
    "make_arrivals",
    "make_workload",
    "run_gateway",
]
