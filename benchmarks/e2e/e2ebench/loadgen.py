"""Load generation: one asyncio thread drives the gateway.

*Open loop*: requests are sent on a seeded Poisson schedule whatever the
system does, one task per arrival, and latency counts from the time a
request was *due* — a stall shows up in every request behind it, and how
late the generator itself ran is reported (``lag_ms``).

*Closed loop*: a client sends its next request only after the previous one
completed, pulling from one seeded stream until the time budget is spent.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import DeadlineExceededError
from repro.serving import GatewayRequest

from e2ebench.measure import Outcome, Request
from e2ebench.tracing import Tracer

_now = time.perf_counter

# A caller with a deadline stops waiting for *admission* this long after the
# deadline has passed. Besides being what callers do, it keeps the benchmark
# alive: a submitter parked on a full class queue is woken once per dequeued
# request, and one that wakes up expired sheds itself without passing the
# wake-up on, so under overload the last parked submitters of a deadline
# class can stay parked for ever (AsyncGateway.enqueue, found by this
# benchmark; src/ is not this change's to fix).
ADMISSION_GRACE_S = 0.05


def poisson_arrivals(rate_rps: float, seconds: float, rng: np.random.Generator) -> List[float]:
    """Arrival offsets (s) of a Poisson process over ``[0, seconds)``,
    conditioned on its expected count: given the count, Poisson arrivals
    are independent uniform draws, sorted. Fixing the count keeps the
    number of requests attempted the same from seed to seed."""
    if rate_rps <= 0 or seconds <= 0:
        raise ValueError("rate_rps and seconds must be positive")
    count = max(int(round(rate_rps * seconds)), 1)
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


async def _send(
    gateway,
    request: Request,
    rid: int,
    due: float,
    window_start: float,
    tracer: Optional[Tracer],
) -> Outcome:
    """Send one request through the gateway and score what came back."""
    sent = _now()
    if tracer is not None:
        root_id, gateway_id = tracer.new_id(), tracer.new_id()
        tracer.inflight[request.prompt] = (rid, gateway_id)
    status, late, queue_ms, completion = "error", False, 0.0, None
    admission = gateway.enqueue(
        GatewayRequest(
            request.prompt,
            priority=request.cls,
            deadline_ms=request.deadline_ms,
            tenant=request.tenant,
        )
    )
    if request.deadline_ms is not None:
        admission = asyncio.wait_for(
            admission, request.deadline_ms / 1000.0 + ADMISSION_GRACE_S
        )
    try:
        ticket = await admission
        try:
            completion = await ticket.future
            status = ticket.status
        except DeadlineExceededError:
            status = "shed"
        queue_ms, late = ticket.queue_ms, ticket.late
    except asyncio.TimeoutError:
        status = "shed"  # gave up waiting for admission: a miss like any shed
    except Exception:  # the outcome *is* the record of the failure
        pass
    done = _now()
    if tracer is not None:
        tracer.inflight.pop(request.prompt, None)
        tracer.add(root_id, "bench.loadgen:request", due, done, None, rid)
        tracer.add(gateway_id, "serving.gateway:request", sent, done, root_id, rid)
    return Outcome(
        request=request,
        status=status,
        latency_ms=(done - due) * 1000.0,
        due_s=due - window_start,
        lag_ms=(sent - due) * 1000.0,
        queue_ms=queue_ms,
        late=late,
        completion=completion,
    )


async def open_loop(
    gateway,
    requests: Sequence[Request],
    arrivals: Sequence[float],
    tracer: Optional[Tracer] = None,
) -> List[Outcome]:
    """Send ``requests[i]`` at ``arrivals[i]`` seconds from now; returns
    once every request has an outcome (the drain is part of the window)."""
    start = _now()

    async def one(i: int) -> Outcome:
        due = start + arrivals[i]
        delay = due - _now()
        if delay > 0:
            await asyncio.sleep(delay)
        return await _send(gateway, requests[i], i, due, start, tracer)

    return list(await asyncio.gather(*(one(i) for i in range(len(requests)))))


async def closed_loop(
    gateway,
    stream: Iterator[Request],
    clients: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> List[Outcome]:
    """``clients`` callers, each waiting for its reply before sending the
    next request of the shared ``stream``, for ``seconds`` seconds."""
    start = _now()
    stop = start + seconds
    rids = itertools.count()
    outcomes: List[Outcome] = []

    async def client() -> None:
        while _now() < stop:
            request = next(stream, None)
            if request is None:
                return
            outcomes.append(await _send(gateway, request, next(rids), _now(), start, tracer))

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes
