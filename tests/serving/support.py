"""Shared gateway test wiring: a gateway over a scheduler closed for you,
and the completions of requests enqueued in order."""

from contextlib import asynccontextmanager

from repro.serving import AsyncGateway, BatchingScheduler


@asynccontextmanager
async def gateway_over(provider, **options):
    """An open ``AsyncGateway(**options)`` over a one-worker, flush-at-once
    ``BatchingScheduler(provider, max_wait_ms=0.0)`` (the deterministic
    path); closes the gateway, then the scheduler."""
    scheduler = BatchingScheduler(provider, max_wait_ms=0.0)
    try:
        async with AsyncGateway(scheduler, **options) as gateway:
            yield gateway
    finally:
        scheduler.close()


async def completions_in_order(gateway, requests):
    """Enqueue ``requests`` one after another, then await every ticket."""
    tickets = [await gateway.enqueue(request) for request in requests]
    return [await ticket.future for ticket in tickets]
