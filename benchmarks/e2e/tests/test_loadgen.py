import asyncio
import time

from repro.llm.provider import make_client
from repro.serving import AsyncGateway, BatchingScheduler, build_stack

from e2ebench.loadgen import closed_loop, open_loop
from e2ebench.measure import Request
from e2ebench.provider import SleepingProvider


def _gateway(overhead_ms, **kwargs):
    provider = SleepingProvider(make_client(), overhead_ms=overhead_ms)
    scheduler = BatchingScheduler(build_stack(provider), workers=1, max_batch_size=1, max_wait_ms=0)
    return AsyncGateway(scheduler, classes=("all",), degrader=None, **kwargs), scheduler, provider


def test_open_loop_survives_submitters_the_gateway_never_wakes():
    """A is in flight, B fills the one-slot queue, C and D park and expire.
    Dequeuing B wakes C, which sheds itself without waking D: without the
    caller's admission timeout D would wait for ever."""
    gateway, scheduler, _provider = _gateway(100.0, max_queue_per_class=1, max_inflight=1)
    requests = [Request("A"), Request("B"), Request("C", deadline_ms=20.0), Request("D", deadline_ms=20.0)]

    async def run():
        async with gateway:
            return await asyncio.wait_for(open_loop(gateway, requests, [0.0, 0.01, 0.02, 0.02]), 5.0)

    try:
        outcomes = asyncio.run(run())
    finally:
        scheduler.close()
    assert [o.status for o in outcomes] == ["ok", "ok", "shed", "shed"]
    assert [o.good for o in outcomes] == [True, True, False, False]
    assert all(o.lag_ms >= 0 for o in outcomes)
    # Latency counts from the due time: B waited for A's 100 ms.
    assert outcomes[1].latency_ms > 150


def test_closed_loop_sends_one_at_a_time_until_the_budget_is_spent():
    gateway, scheduler, provider = _gateway(5.0)
    stream = (Request(f"question number {i}") for i in range(10_000))

    async def run():
        async with gateway:
            return await closed_loop(gateway, stream, clients=1, seconds=0.5)

    started = time.perf_counter()
    try:
        outcomes = asyncio.run(run())
    finally:
        scheduler.close()
    assert 0.5 <= time.perf_counter() - started < 2.0
    assert 20 < len(outcomes) <= 100  # 5 ms a call, one in flight
    assert all(o.answered and o.latency_ms >= 5.0 for o in outcomes)
    assert [o.request.prompt for o in outcomes] == [f"question number {i}" for i in range(len(outcomes))]
    assert provider.counters()["provider_calls"] == len(outcomes)
    assert provider.counters()["cost_usd"] > 0
