"""AsyncGateway: determinism, priority/EDF ordering, shed/degrade, backpressure.

The load-bearing contract is bit-identical equivalence with the serial
loop (workers=1, no deadlines) — the hypothesis properties at the bottom
hammer it across random class interleavings, plus the invariant that an
expired-at-submit request is *never* dispatched to the provider.
"""

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError, SchedulerClosedError
from repro.llm.client import LLMClient
from repro.serving import (
    AsyncGateway,
    BatchingScheduler,
    GatewayRequest,
    ServingCluster,
    build_stack,
)
from tests.serving.support import completions_in_order, gateway_over


class ManualClock:
    """Injectable monotonic clock so deadline tests never sleep."""

    def __init__(self):
        self.t = 1000.0

    def now(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


class RecordingProvider:
    """Wraps a client; records every prompt the backend actually sees."""

    def __init__(self, seed=0):
        self.inner = LLMClient(seed=seed)
        self.calls = []
        self._lock = threading.Lock()

    def complete(self, prompt, model=None):
        with self._lock:
            self.calls.append(prompt)
        return self.inner.complete(prompt, model=model)

    def embed(self, text):
        return self.inner.embed(text)


class GatedProvider(RecordingProvider):
    """Blocks every completion until ``release`` is set."""

    def __init__(self, seed=0):
        super().__init__(seed=seed)
        self.release = threading.Event()

    def complete(self, prompt, model=None):
        assert self.release.wait(timeout=10)
        return super().complete(prompt, model=model)


def questions(n, tag="gw"):
    return [f"Question: what about {tag} item {i}?" for i in range(n)]


class TestGatewayBasics:
    def test_submit_returns_completion(self):
        async def run():
            async with gateway_over(LLMClient()) as gateway:
                return await gateway.submit("Question: what is a gateway?")

        completion = asyncio.run(run())
        assert completion.text

    def test_validation(self):
        with BatchingScheduler(LLMClient(), max_wait_ms=0.0) as backend:
            with pytest.raises(ValueError):
                AsyncGateway(backend, classes=())
            with pytest.raises(ValueError):
                AsyncGateway(backend, classes=("a", "a"))
            with pytest.raises(ValueError):
                AsyncGateway(backend, max_queue_per_class=0)
            with pytest.raises(ValueError):
                AsyncGateway(backend, degrader=42)

    def test_backend_without_submit_is_rejected(self):
        # A provider or stack has no ``submit``: the caller builds the
        # scheduler (or cluster) and closes it.
        for backend in (LLMClient(), build_stack(LLMClient(), cache=True)):
            with pytest.raises(TypeError, match="BatchingScheduler.*ServingCluster"):
                AsyncGateway(backend)

    def test_unknown_priority_class_rejected(self):
        async def run():
            async with gateway_over(LLMClient()) as gateway:
                await gateway.submit(GatewayRequest("Question: hm?", priority="platinum"))

        with pytest.raises(ValueError, match="platinum"):
            asyncio.run(run())

    def test_submit_after_close_raises(self):
        async def run():
            async with gateway_over(LLMClient()) as gateway:
                await gateway.submit("Question: warm-up?")
            with pytest.raises(SchedulerClosedError):
                await gateway.submit("Question: too late?")

        asyncio.run(run())

    def test_stats_snapshot_has_gateway_section(self):
        async def run():
            async with gateway_over(LLMClient()) as gateway:
                await gateway.submit(GatewayRequest("Question: stats?", priority="interactive"))
                return gateway.stats.snapshot()

        snap = asyncio.run(run())
        gateway_section = snap["gateway"]
        assert gateway_section["submitted"] == 1
        assert gateway_section["completed"] == 1
        assert gateway_section["shed"] == 0
        assert gateway_section["by_class"]["interactive"]["completed"] == 1


class TestDeterminism:
    def test_workers1_no_deadlines_bit_identical_to_serial(self):
        # Repeated prompts through *stateful* cache-fronted stacks: the
        # gateway's forward order must equal submission order so cache
        # state mutates identically.
        pool = questions(6, "determinism")
        prompts = [pool[i % len(pool)] for i in range(18)]
        serial_stack = build_stack(LLMClient(), cache=True)
        expected = [serial_stack.complete(p) for p in prompts]

        gateway_stack = build_stack(LLMClient(), cache=True)

        async def run():
            async with gateway_over(gateway_stack, classes=("all",)) as gateway:
                return await completions_in_order(gateway, prompts)

        got = asyncio.run(run())
        assert got == expected
        assert (
            gateway_stack.stats.cache_reuse_hits
            == serial_stack.stats.cache_reuse_hits
        )


class TestOrdering:
    def test_strict_class_priority(self):
        provider = RecordingProvider()

        async def run():
            async with gateway_over(provider, max_inflight=1) as gateway:
                tickets = []
                for cls in ("batch", "standard", "interactive", "batch", "interactive"):
                    tickets.append(
                        await gateway.enqueue(
                            GatewayRequest(f"Question: {cls} #{len(tickets)}?", priority=cls)
                        )
                    )
                await asyncio.gather(*(t.future for t in tickets))

        asyncio.run(run())
        classes = [prompt.split()[1] for prompt in provider.calls]
        assert classes == ["interactive", "interactive", "standard", "batch", "batch"]

    def test_edf_within_class_seq_tiebreak(self):
        provider = RecordingProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(
                provider, clock=clock.now, max_inflight=1
            ) as gateway:
                tickets = [
                    await gateway.enqueue(
                        GatewayRequest("Question: slack?", priority="standard", deadline_ms=60_000)
                    ),
                    await gateway.enqueue(
                        GatewayRequest("Question: urgent?", priority="standard", deadline_ms=5_000)
                    ),
                    await gateway.enqueue(
                        GatewayRequest("Question: none-a?", priority="standard")
                    ),
                    await gateway.enqueue(
                        GatewayRequest("Question: none-b?", priority="standard")
                    ),
                ]
                await asyncio.gather(*(t.future for t in tickets))

        asyncio.run(run())
        # Earliest deadline first; no-deadline (+inf key) last, in
        # submission order.
        assert provider.calls == [
            "Question: urgent?",
            "Question: slack?",
            "Question: none-a?",
            "Question: none-b?",
        ]


class TestShedAndDegrade:
    def test_shed_at_submit_never_dispatched(self):
        provider = RecordingProvider()

        async def run():
            async with gateway_over(provider) as gateway:
                ticket = await gateway.enqueue(GatewayRequest("Question: hopeless?", deadline_ms=0))
                with pytest.raises(DeadlineExceededError) as excinfo:
                    await ticket.future
                return ticket, excinfo.value

        ticket, error = asyncio.run(run())
        assert ticket.status == "shed"
        assert error.deadline_ms == 0
        assert provider.calls == []

    def test_expired_in_queue_sheds_without_degrader(self):
        provider = RecordingProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(
                provider, clock=clock.now, degrader=None
            ) as gateway:
                ticket = await gateway.enqueue(
                    GatewayRequest("Question: expiring?", deadline_ms=5.0)
                )
                clock.advance(0.010)  # expire before the pump first runs
                with pytest.raises(DeadlineExceededError):
                    await ticket.future
                return ticket

        ticket = asyncio.run(run())
        assert ticket.status == "shed"
        assert provider.calls == []

    def test_expired_in_queue_degrades_through_resilience(self):
        stack = build_stack(LLMClient(), cache=True, resilience=True)
        clock = ManualClock()

        async def run():
            async with gateway_over(stack, clock=clock.now) as gateway:
                ticket = await gateway.enqueue(
                    GatewayRequest("Question: expiring?", deadline_ms=5.0)
                )
                clock.advance(0.010)
                completion = await ticket.future
                return ticket, completion

        ticket, completion = asyncio.run(run())
        assert ticket.status == "degraded"
        marker = completion.metadata["serving.gateway"]
        assert marker["degraded"] is True
        assert stack.stats.fallback_model_answers >= 1

    def test_late_completion_marked_but_delivered(self):
        provider = GatedProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(provider, clock=clock.now) as gateway:
                ticket = await gateway.enqueue(
                    GatewayRequest("Question: slow?", deadline_ms=100.0)
                )
                while gateway._inflight == 0:  # let the pump dispatch it
                    await asyncio.sleep(0.001)
                clock.advance(0.5)  # deadline lapses while inflight
                provider.release.set()
                completion = await ticket.future
                return ticket, completion

        ticket, completion = asyncio.run(run())
        assert ticket.status == "ok"
        assert ticket.late
        assert completion.metadata["serving.gateway"]["late"] is True


async def wait_until(condition, timeout_s=5.0):
    for _ in range(int(timeout_s / 0.001)):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition never held")


async def teach_backend_time(gateway, provider, clock, seconds):
    """Serve one no-deadline request that takes ``seconds`` on ``clock``
    between dispatch and resolve; leaves ``provider`` gated again."""
    provider.release.clear()
    ticket = await gateway.enqueue("Question: how long does the backend take?")
    await wait_until(lambda: gateway._inflight == 1)
    clock.advance(seconds)
    provider.release.set()
    await ticket.future
    provider.release.clear()


async def hold_backend_busy(gateway):
    """One no-deadline request parked in the gated provider."""
    ticket = await gateway.enqueue("Question: busy?")
    await wait_until(lambda: gateway._inflight == 1)
    return ticket


class TestPredictiveShedding:
    """Once a completion has taught the gateway the backend takes T, a
    request popped with less than T of slack while the backend is busy is
    shed (or degraded) at dispatch instead of being served late."""

    def test_predicted_miss_is_shed_and_never_dispatched(self):
        provider = GatedProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(provider, clock=clock.now, degrader=None) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.200)
                busy = await hold_backend_busy(gateway)
                doomed = await gateway.enqueue(
                    GatewayRequest("Question: doomed?", deadline_ms=100.0)
                )
                try:
                    await wait_until(lambda: not any(gateway.queue_depths().values()))
                    assert doomed.future.done()  # settled when popped, not by the backend
                finally:
                    provider.release.set()
                with pytest.raises(DeadlineExceededError) as excinfo:
                    await doomed.future
                await busy.future
                return doomed, excinfo.value, gateway.stats

        ticket, error, stats = asyncio.run(run())
        assert ticket.status == "shed"
        assert "Question: doomed?" not in provider.calls
        message = str(error)
        assert "predicted backend time 200.0ms" in message
        assert "remaining slack 100.0ms" in message
        assert "expired" not in message
        assert error.waited_ms == 0.0 and ticket.queue_ms == 0.0
        assert stats.gateway_shed == 1

    def test_predicted_miss_degrades_through_resilience(self):
        provider = GatedProvider()
        stack = build_stack(provider, resilience=True)
        clock = ManualClock()

        async def run():
            async with gateway_over(stack, clock=clock.now) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.200)
                busy = await hold_backend_busy(gateway)
                doomed = await gateway.enqueue(
                    GatewayRequest("Question: doomed?", deadline_ms=100.0)
                )
                # Popped and handed to the fallback chain, which the gate
                # holds like any other provider call.
                await wait_until(lambda: gateway._inflight == 2)
                provider.release.set()
                completion = await doomed.future
                await busy.future
                return doomed, completion

        ticket, completion = asyncio.run(run())
        assert ticket.status == "degraded"
        marker = completion.metadata["serving.gateway"]
        assert marker["degraded"] is True
        assert marker["reason"] == (
            "predicted backend time 200.0ms exceeds remaining slack 100.0ms"
        )
        assert marker["queue_ms"] == 0.0
        assert stack.stats.fallback_model_answers == 1

    def test_no_deadline_never_predicts(self):
        provider = GatedProvider()
        # Two workers: the second request is forwarded while the first
        # keeps the backend busy, which is when a prediction could fire.
        backend = BatchingScheduler(provider, workers=2, max_wait_ms=0.0)
        clock = ManualClock()

        async def run():
            async with AsyncGateway(backend, clock=clock.now, degrader=None) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.200)
                busy = await hold_backend_busy(gateway)
                ticket = await gateway.enqueue(
                    GatewayRequest("Question: served?")
                )
                await wait_until(lambda: gateway._inflight == 2)  # dispatched while busy
                provider.release.set()
                completion = await ticket.future
                await busy.future
                return ticket, completion

        try:
            ticket, completion = asyncio.run(run())
        finally:
            backend.close()
        assert ticket.status == "ok" and completion.text
        assert "Question: served?" in provider.calls

    def test_slow_phase_does_not_shed_isolated_requests_at_an_idle_gateway(self):
        """A slow phase leaves the estimate at 500 ms; the backend then
        recovers. Requests with 100 ms deadlines sent one at a time find the
        gateway idle and are served: only a busy backend is predicted."""
        provider = GatedProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(provider, clock=clock.now, degrader=None) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.500)
                provider.release.set()  # the backend has recovered
                requests = [
                    GatewayRequest(f"Question: isolated {i}?", deadline_ms=100.0) for i in range(5)
                ]
                return [await gateway.submit(request) for request in requests]

        completions = asyncio.run(run())
        assert all(c.text for c in completions)
        assert [p for p in provider.calls if "isolated" in p] == [
            f"Question: isolated {i}?" for i in range(5)
        ]


class GatedBatchProvider(GatedProvider):
    """A gated provider that also answers combined batches."""

    def complete_batch(self, shared_prefix, items, model=None):
        assert self.release.wait(timeout=10)
        with self._lock:
            self.calls.extend(shared_prefix + item for item in items)
        return self.inner.complete_batch(shared_prefix, items, model=model)


class TestDispatchWindow:
    """The gateway forwards only what the backend can start; the rest of
    the backlog stays in the class heaps, where EDF and shedding apply."""

    @pytest.mark.parametrize(
        "options, window",
        # A combined batch waits up to 50 ms to fill, so both take full ones.
        [({}, 2), ({"combine": True, "max_batch_size": 3, "max_wait_ms": 50.0}, 6)],
        ids=["one-per-worker", "combine-batch-3"],
    )
    def test_forwards_no_more_than_the_backend_can_start(self, options, window):
        provider = GatedBatchProvider()
        backend = BatchingScheduler(provider, **{"workers": 2, "max_wait_ms": 0.0, **options})
        assert backend.concurrency == window
        prompts = questions(window + 4, "window")

        async def run():
            async with AsyncGateway(backend, classes=("all",)) as gateway:
                assert gateway.max_inflight == window
                tasks = [asyncio.ensure_future(gateway.submit(p)) for p in prompts]
                try:
                    await wait_until(lambda: gateway.queue_depths()["all"] == 4)
                    await asyncio.sleep(0.02)  # room for a stray forward
                    forwarded = backend.stats.scheduler_submitted
                    depth = backend.queue_depth
                finally:
                    provider.release.set()
                completions = await asyncio.gather(*tasks)
                return forwarded, depth, completions

        try:
            forwarded, depth, completions = asyncio.run(run())
        finally:
            backend.close()
        assert forwarded == window
        assert depth == 0  # every forwarded request started at once
        assert all(c.text for c in completions)
        assert sorted(provider.calls) == sorted(prompts)

    def test_doomed_lower_class_request_is_shed_while_every_slot_is_busy(self):
        provider = GatedProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(provider, clock=clock.now, degrader=None) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.200)
                busy = await hold_backend_busy(gateway)
                waiting = await gateway.enqueue(
                    GatewayRequest("Question: next in line?", priority="interactive")
                )
                doomed = await gateway.enqueue(
                    GatewayRequest("Question: doomed?", priority="batch", deadline_ms=100.0)
                )
                try:
                    await wait_until(lambda: doomed.future.done(), timeout_s=1.0)
                    depths = gateway.queue_depths()
                finally:
                    provider.release.set()
                with pytest.raises(DeadlineExceededError):
                    await doomed.future
                await asyncio.gather(busy.future, waiting.future)
                return doomed, waiting, depths

        doomed, waiting, depths = asyncio.run(run())
        # Shed from behind the queued interactive request, before any slot freed.
        assert depths == {"interactive": 1, "standard": 0, "batch": 0}
        assert doomed.status == "shed"
        assert waiting.status == "ok"
        assert "Question: doomed?" not in provider.calls

    def test_degradation_in_flight_does_not_block_the_next_dispatch(self):
        provider = GatedProvider()
        clock = ManualClock()
        degrade_gate = threading.Event()
        fallback = LLMClient(model="gpt-3.5-turbo")

        def degrade(prompt, model):
            assert degrade_gate.wait(timeout=10)
            return fallback.complete(prompt, model=model)

        async def run():
            async with gateway_over(provider, clock=clock.now, degrader=degrade) as gateway:
                await teach_backend_time(gateway, provider, clock, 0.200)
                busy = await hold_backend_busy(gateway)
                doomed = await gateway.enqueue(
                    GatewayRequest("Question: doomed?", deadline_ms=100.0)
                )
                await wait_until(lambda: gateway._inflight == 2)  # degrading
                following = await gateway.enqueue("Question: following?")
                try:
                    await asyncio.sleep(0.02)
                    queued_while_busy = gateway.queue_depths()["standard"]
                    provider.release.set()
                    await asyncio.wait_for(asyncio.shield(following.future), 5.0)
                    degrading = not doomed.future.done()
                finally:
                    provider.release.set()
                    degrade_gate.set()
                await asyncio.gather(busy.future, doomed.future)
                return queued_while_busy, degrading, doomed, following

        queued_while_busy, degrading, doomed, following = asyncio.run(run())
        assert queued_while_busy == 1  # the busy backend's one slot was taken
        assert degrading  # served while the fallback still ran
        assert following.status == "ok"
        assert doomed.status == "degraded"
        assert "Question: doomed?" not in provider.calls

    def test_cluster_shards_are_not_starved_by_a_busy_shard(self):
        # A cluster runs each request on its key's shard, so a window of
        # one per shard would hold the idle shard's request behind two
        # forwarded to the busy one.
        providers = {"shard-0": GatedProvider(), "shard-1": RecordingProvider()}
        cluster = ServingCluster(lambda shard: providers[shard], n_shards=2)
        by_shard = {"shard-0": [], "shard-1": []}
        for prompt in questions(40, "shard"):
            by_shard[cluster.router.route_request("default", prompt)].append(prompt)
        prompts = by_shard["shard-0"][:2] + by_shard["shard-1"][:1]

        async def run():
            async with AsyncGateway(cluster, classes=("all",)) as gateway:
                tasks = [asyncio.ensure_future(gateway.submit(p)) for p in prompts]
                try:
                    done, _ = await asyncio.wait(tasks[2:], timeout=5.0)
                finally:
                    providers["shard-0"].release.set()
                await asyncio.gather(*tasks)
                return len(done)

        try:
            served_while_shard_0_busy = asyncio.run(run())
        finally:
            cluster.close()
        assert served_while_shard_0_busy == 1
        assert providers["shard-1"].calls == prompts[2:]


class TestBackpressure:
    def test_full_class_queue_parks_then_admits(self):
        provider = GatedProvider()

        async def run():
            async with gateway_over(
                provider, classes=("all",), max_queue_per_class=1, max_inflight=1
            ) as gateway:
                tasks = [
                    asyncio.ensure_future(gateway.submit(p))
                    for p in questions(4, "backpressure")
                ]
                await asyncio.sleep(0.01)  # some submits are now parked
                provider.release.set()
                return await asyncio.gather(*tasks), gateway.stats

        completions, stats = asyncio.run(run())
        assert all(c.text for c in completions)
        assert stats.gateway_backpressure_waits >= 1

    def test_parked_submitter_that_wakes_expired_hands_the_slot_on(self):
        """A in flight, B queued, C and D parked with 20 ms deadlines.
        Dequeuing B wakes C; C finds itself expired and sheds without
        taking the slot, so it must wake D — or D parks for ever."""
        provider = GatedProvider()
        clock = ManualClock()

        async def run():
            async with gateway_over(
                provider,
                classes=("all",),
                max_queue_per_class=1,
                max_inflight=1,
                clock=clock.now,
                degrader=None,
            ) as gateway:
                a = asyncio.ensure_future(gateway.submit("Question: A?"))
                while gateway._inflight == 0:
                    await asyncio.sleep(0.001)
                b = asyncio.ensure_future(gateway.submit("Question: B?"))
                parked = [
                    asyncio.ensure_future(gateway.submit(GatewayRequest(p, deadline_ms=20.0)))
                    for p in ("Question: C?", "Question: D?")
                ]
                while len(gateway._waiters["all"]) < 2:
                    await asyncio.sleep(0.001)
                clock.advance(0.050)  # C and D expire while parked
                provider.release.set()
                shed = await asyncio.wait_for(
                    asyncio.gather(*parked, return_exceptions=True), 5.0
                )
                return await a, await b, shed

        a, b, shed = asyncio.run(run())
        assert a.text and b.text
        assert [type(e) for e in shed] == [DeadlineExceededError] * 2
        assert provider.calls == ["Question: A?", "Question: B?"]

    def test_close_wakes_parked_submitters(self):
        provider = GatedProvider()

        async def run():
            async with gateway_over(
                provider, classes=("all",), max_queue_per_class=1, max_inflight=1
            ) as gateway:
                accepted = asyncio.ensure_future(
                    gateway.submit("Question: admitted?")
                )
                await asyncio.sleep(0.01)
                parked = [
                    asyncio.ensure_future(gateway.submit(p))
                    for p in questions(3, "parked")
                ]
                await asyncio.sleep(0.01)
                provider.release.set()  # let the drain finish
                close_task = asyncio.ensure_future(gateway.close())
                results = await asyncio.gather(*parked, return_exceptions=True)
                await close_task
                return await accepted, results

        completion, results = asyncio.run(run())
        assert completion.text
        assert any(isinstance(r, SchedulerClosedError) for r in results)


# ---------------------------------------------------------------- properties

async def settled(tickets):
    """``(request, completion | None, error | None)`` per ticket, in
    enqueue order, once every ticket has settled."""
    outcomes = await asyncio.gather(*(t.future for t in tickets), return_exceptions=True)
    return [
        (t.request, None, o) if isinstance(o, BaseException) else (t.request, o, None)
        for t, o in zip(tickets, outcomes)
    ]


class_indexes = st.lists(
    st.integers(min_value=0, max_value=2), min_size=1, max_size=12
)


@settings(max_examples=20, deadline=None)
@given(assignment=class_indexes)
def test_property_class_interleavings_match_serial(assignment):
    """Any interleaving of priority classes, no deadlines: every request's
    result is bit-identical to the serial loop's result for that prompt,
    and the backend sees the requests by class, then in submission order."""
    classes = ("interactive", "standard", "batch")
    prompts = questions(len(assignment), "prop")
    serial = LLMClient(seed=7)
    expected = {p: serial.complete(p) for p in prompts}
    provider = RecordingProvider(seed=7)

    async def run():
        async with gateway_over(provider) as gateway:
            tickets = [
                await gateway.enqueue(GatewayRequest(p, priority=classes[k]))
                for p, k in zip(prompts, assignment)
            ]
            return await settled(tickets)

    results = asyncio.run(run())
    assert all(completion is not None for _, completion, _ in results)
    for request, completion, _ in results:
        assert completion == expected[request.prompt]
    # Every request is queued before the pump first runs, and the window
    # is one: the forward order is (class, seq), whatever the arrivals.
    forward = [p for _, _, p in sorted(zip(assignment, range(len(prompts)), prompts))]
    assert provider.calls == forward


@settings(max_examples=15, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=14))
def test_property_single_class_cache_stack_matches_serial(picks):
    """Single class, stateful cache-fronted stack, workers=1: the ordered
    result list is bit-identical to running the serial loop — same cache
    hits, same texts, same costs."""
    pool = questions(4, "cacheprop")
    prompts = [pool[k] for k in picks]
    serial_stack = build_stack(LLMClient(), cache=True)
    expected = [serial_stack.complete(p) for p in prompts]

    gateway_stack = build_stack(LLMClient(), cache=True)

    async def run():
        async with gateway_over(gateway_stack, classes=("all",)) as gateway:
            return await completions_in_order(gateway, prompts)

    assert asyncio.run(run()) == expected


@settings(max_examples=20, deadline=None)
@given(
    deadlines=st.lists(
        st.one_of(
            st.just(None),
            st.floats(min_value=-50.0, max_value=0.0),
            st.just(60_000.0),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_property_expired_at_submit_always_shed_never_dispatched(deadlines):
    """deadline_ms <= 0 at submit: always DeadlineExceededError, and the
    provider never sees the prompt; everything else completes."""
    provider = RecordingProvider()
    reqs = [
        GatewayRequest(f"Question: prop item {i}?", deadline_ms=d)
        for i, d in enumerate(deadlines)
    ]

    async def run():
        async with gateway_over(provider) as gateway:
            return await settled([await gateway.enqueue(r) for r in reqs])

    results = asyncio.run(run())
    for (request, completion, error), deadline in zip(results, deadlines):
        if deadline is not None and deadline <= 0:
            assert isinstance(error, DeadlineExceededError)
            assert request.prompt not in provider.calls
        else:
            assert completion is not None
    shed = sum(1 for d in deadlines if d is not None and d <= 0)
    assert len(provider.calls) == len(deadlines) - shed
