"""SLO-aware gateway: priority classes, deadlines, shedding, degradation.

An `AsyncGateway` fronts a resilience-wired serving stack. Three traffic
classes share one backend: interactive requests carry tight deadlines,
batch requests carry none. Under deliberate overload the gateway keeps
the interactive class inside its SLO by draining it first (strict class
priority + EDF), parks excess arrivals on bounded queues, sheds requests
that are already hopeless, and answers expired-in-queue work through the
resilience fallback chain instead of timing out. Work the busy backend is
predicted to finish after its deadline (slack below the gateway's smoothed
backend time) takes the same fallback path while it waits, so few full
answers arrive late: the printed ``late=`` count stays small. The gateway
forwards no more than the scheduler's four workers can start, so the
backlog stays where priority applies.

Run with:  python examples/gateway_serving.py
"""

import asyncio
import time

from repro.bench.perf import SimulatedServiceProvider
from repro.errors import DeadlineExceededError
from repro.llm import LLMClient
from repro.serving import AsyncGateway, BatchingScheduler, GatewayRequest, build_stack

SERVICE_MS = 15.0  # simulated per-call service time


def build_backend():
    """Cache + resilience stack over a client charging 15 ms per call."""
    provider = SimulatedServiceProvider(LLMClient(), overhead_ms=SERVICE_MS)
    return build_stack(provider, cache=True, resilience=True)


def make_traffic(n):
    """A mixed open-loop burst: tight-deadline interactive, medium
    standard, deadline-free batch."""
    requests = []
    for i in range(n):
        if i % 4 == 0:
            requests.append(
                GatewayRequest(
                    f"Question: interactive lookup {i}?",
                    priority="interactive",
                    deadline_ms=8 * SERVICE_MS,
                )
            )
        elif i % 4 in (1, 2):
            requests.append(
                GatewayRequest(
                    f"Question: standard report {i}?",
                    priority="standard",
                    deadline_ms=10 * SERVICE_MS,
                )
            )
        else:
            requests.append(GatewayRequest(f"Question: batch backfill {i}?"))
    return requests


async def serve(requests):
    stack = build_backend()
    # workers=4: sleeps release the GIL, so dispatch overlap is real.
    scheduler = BatchingScheduler(stack, workers=4, max_wait_ms=0.0)
    async with AsyncGateway(scheduler, max_queue_per_class=16) as gateway:
        # One deliberately hopeless request: shed on arrival, never served.
        try:
            await gateway.submit(GatewayRequest("Question: already too late?", deadline_ms=0))
        except DeadlineExceededError as exc:
            print(f"shed at submit:    {exc}")

        start = time.perf_counter()
        # Submits past a full class queue park here until the pump frees
        # a slot; every ticket settles as ok, degraded, shed or error.
        tickets = [await gateway.enqueue(request) for request in requests]
        await asyncio.gather(*(t.future for t in tickets), return_exceptions=True)
        elapsed = time.perf_counter() - start

        counts = {"ok": 0, "degraded": 0, "shed": 0, "late": 0}
        for ticket in tickets:
            counts[ticket.status if ticket.status in counts else "shed"] += 1
            counts["late"] += int(ticket.late)

        snap = gateway.stats.snapshot()["gateway"]
        print(f"served {len(requests)} requests in {elapsed * 1000:.0f} ms")
        print(
            f"outcomes:          ok={counts['ok']} degraded={counts['degraded']} "
            f"shed={counts['shed']} late={counts['late']}"
        )
        print(f"backpressure:      {snap['backpressure_waits']} parked submits")
        for cls, bucket in snap["by_class"].items():
            print(
                f"  {cls:<12} submitted={bucket['submitted']:>3} "
                f"completed={bucket['completed']:>3} shed={bucket['shed']:>3} "
                f"degraded={bucket['degraded']:>3}"
            )
    scheduler.close()
    return stack


def main() -> None:
    requests = make_traffic(48)
    stack = asyncio.run(serve(requests))
    print(f"pipeline:          {stack.describe()}")
    print(
        f"fallback answers:  {stack.stats.fallback_model_answers} "
        f"(degraded through the resilience chain, not timed out)"
    )


if __name__ == "__main__":
    main()
