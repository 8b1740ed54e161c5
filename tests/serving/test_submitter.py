"""Conformance suite for the one request contract.

:class:`~repro.llm.provider.Submitter` — ``submit(prompt, model=None, *,
tenant=None) -> Future[Completion]``, ``close()``, ``stats`` — has exactly
two implementations, and :class:`AsyncGateway` forwards to either through
nothing else. Every test runs against both, bare and behind the gateway.
"""

import asyncio

import pytest

from repro.errors import SchedulerClosedError
from repro.llm.client import LLMClient
from repro.llm.provider import Submitter
from repro.serving import (
    AsyncGateway,
    BatchingScheduler,
    GatewayRequest,
    ServingCluster,
    build_stack,
)
from tests.serving.support import completions_in_order, gateway_over

BACKENDS = ("scheduler", "cluster")
DOORS = [(kind, via) for kind in BACKENDS for via in (False, True)]
DOOR_IDS = [f"{kind}{'-behind-gateway' if via else ''}" for kind, via in DOORS]


def make_backend(kind):
    """One dispatch worker either way: the deterministic configuration."""
    if kind == "scheduler":
        return BatchingScheduler(build_stack(LLMClient(), cache=True))
    return ServingCluster(lambda shard: LLMClient(), n_shards=1)


def serve(backend, via_gateway, requests):
    """Completions for ``(prompt, model, tenant)`` triples, in order."""
    if not via_gateway:
        futures = [backend.submit(p, model=m, tenant=t) for p, m, t in requests]
        return [future.result(timeout=10) for future in futures]

    async def run():
        async with AsyncGateway(backend, classes=("all",)) as gateway:
            return await completions_in_order(
                gateway, [GatewayRequest(p, model=m, tenant=t) for p, m, t in requests]
            )

    return asyncio.run(run())


@pytest.mark.parametrize("kind", BACKENDS)
def test_both_tiers_satisfy_the_protocol(kind):
    backend = make_backend(kind)
    try:
        assert isinstance(backend, Submitter)
        assert backend.stats is not None
        # A cluster request runs on its key's shard: no fixed count.
        assert backend.concurrency == (1 if kind == "scheduler" else None)
    finally:
        backend.close()


def test_concurrency_counts_what_each_tier_starts_at_once():
    stack = build_stack(LLMClient())
    scheduler = BatchingScheduler(stack, workers=3, max_batch_size=4)
    combining = BatchingScheduler(stack, workers=2, max_batch_size=4, combine=True)
    cluster = ServingCluster(lambda shard: LLMClient(), n_shards=3)
    try:
        assert [scheduler.concurrency, combining.concurrency, cluster.concurrency] == [3, 8, None]
        assert all(isinstance(b, Submitter) for b in (scheduler, combining, cluster))
    finally:
        for backend in (scheduler, combining, cluster):
            backend.close()


@pytest.mark.parametrize("kind,via_gateway", DOORS, ids=DOOR_IDS)
def test_futures_match_the_serial_stack_loop(kind, via_gateway):
    # Repeats make the cache live state: any reordering would flip which
    # request pays and which replays.
    pool = [f"Question: what about contract item {i}?" for i in range(5)]
    prompts = [pool[i % len(pool)] for i in range(14)]
    reference = build_stack(LLMClient(), cache=True)
    expected = [reference.complete(p) for p in prompts]
    backend = make_backend(kind)
    try:
        got = serve(backend, via_gateway, [(p, None, None) for p in prompts])
    finally:
        backend.close()
    assert got == expected
    assert backend.stats.cache_reuse_hits == reference.stats.cache_reuse_hits == 9


@pytest.mark.parametrize("kind,via_gateway", DOORS, ids=DOOR_IDS)
def test_model_and_tenant_keywords_are_honoured(kind, via_gateway):
    prompt = "Question: who answers this one?"
    backend = make_backend(kind)
    try:
        (completion,) = serve(backend, via_gateway, [(prompt, "gpt-4", "acme")])
    finally:
        backend.close()
    assert completion == LLMClient().complete(prompt, model="gpt-4")
    if kind == "cluster":
        assert backend.tenants() == ["acme"]
        assert backend.spent_usd("acme") == completion.cost


@pytest.mark.parametrize("kind", BACKENDS)
def test_tenant_is_keyword_only(kind):
    backend = make_backend(kind)
    try:
        with pytest.raises(TypeError):
            backend.submit("Question: positional?", "gpt-4", "acme")
    finally:
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_submit_after_close_raises_scheduler_closed(kind):
    backend = make_backend(kind)
    backend.submit("Question: before close?").result(timeout=10)
    backend.close()
    with pytest.raises(SchedulerClosedError):
        backend.submit("Question: after close?")


@pytest.mark.parametrize("kind", BACKENDS)
def test_gateway_reports_a_closed_backend_as_scheduler_closed(kind):
    backend = make_backend(kind)
    backend.close()

    async def run():
        async with AsyncGateway(backend) as gateway:
            with pytest.raises(SchedulerClosedError):
                await gateway.submit("Question: backend already gone?")
        with pytest.raises(SchedulerClosedError):
            await gateway.submit("Question: gateway gone too?")

    asyncio.run(run())


@pytest.mark.parametrize("kind", BACKENDS)
def test_close_is_idempotent(kind):
    backend = make_backend(kind)
    backend.submit("Question: once?").result(timeout=10)
    backend.close()
    backend.close()


def test_gateway_close_is_idempotent():
    async def run():
        async with gateway_over(LLMClient()) as gateway:
            await gateway.submit("Question: through the gateway?")
        await gateway.close()

    asyncio.run(run())


def test_gateway_leaves_a_callers_backend_open():
    scheduler = BatchingScheduler(LLMClient())

    async def run(backend):
        async with AsyncGateway(backend) as gateway:
            await gateway.submit("Question: who owns the backend?")
        return gateway

    gateway = asyncio.run(run(scheduler))
    assert gateway.stats is scheduler.stats
    assert scheduler.submit("Question: still open?").result(timeout=10).text
    scheduler.close()


def test_one_snapshot_shows_gateway_scheduler_and_cache():
    # No stats= anywhere: the scheduler adopts the stack's ServiceStats and
    # the gateway the scheduler's, so one snapshot covers the whole path.
    stack = build_stack(LLMClient(), cache=True)
    scheduler = BatchingScheduler(stack)
    prompts = ["Question: one snapshot?", "Question: one snapshot?", "Question: or two?"]

    async def run():
        async with AsyncGateway(scheduler) as gateway:
            assert gateway.stats is scheduler.stats is stack.stats
            return await completions_in_order(gateway, prompts)

    try:
        asyncio.run(run())
    finally:
        scheduler.close()
    snapshot = stack.stats.snapshot()
    assert snapshot["gateway"]["submitted"] == snapshot["gateway"]["completed"] == 3
    assert snapshot["scheduler"]["submitted"] == snapshot["scheduler"]["completed"] == 3
    assert snapshot["scheduler"]["batches"] >= 1
    assert snapshot["cache"]["lookups"] == 3
    assert snapshot["cache"]["reuse_hits"] == 1
    assert snapshot["llm"]["calls"] == 2
