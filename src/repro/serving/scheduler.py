"""Request scheduler: a bounded FIFO queue served by a pool of dispatchers.

The serving stack answers one request per call. :class:`BatchingScheduler`
puts a bounded queue in front of any
:class:`~repro.llm.provider.CompletionProvider` and serves it with a pool
of dispatcher threads:

1. **submit** — client threads enqueue ``(prompt, model)`` and get back a
   :class:`concurrent.futures.Future`. The queue is a FIFO: arrival order
   is the only order.
2. **take** — a free dispatcher takes the collecting turn and drains its
   own batch from the head of the queue. Without ``combine`` a batch is
   exactly one request, so no request waits behind another one's provider
   call while a dispatcher is free. With ``combine=True`` the dispatcher
   keeps collecting until the batch holds ``max_batch_size`` requests or
   its oldest request has waited ``max_wait_ms``.
3. **dispatch** — with ``combine=True`` a batch becomes one
   ``complete_batch`` call whose shared prefix is the common string prefix
   of its prompts (query combination: one call answers many queries), so
   the terminal client's shared-prefix token refund and the budget layer's
   batch netting are exercised under load; a single request is completed
   through every middleware layer (cache included).
4. **resolve** — each future resolves as soon as its batch returns, so a
   request that finishes early is never held behind a slower one.

Determinism: completions are pure functions of ``(seed, model, prompt)``,
and with ``workers=1`` all stateful layers (semantic cache, budget, usage
meter) are mutated in exactly the arrival order. ``complete_many`` submits
its prompts in order from the calling thread, so with ``workers=1`` it is
bit-identical to the serial loop.

The scheduler is also what applications hold when traffic comes from many
threads — ``submit()`` for futures, ``complete_many()`` for a whole
workload — and one of the two :class:`~repro.llm.provider.Submitter`
implementations :class:`~repro.serving.gateway.AsyncGateway` forwards to:

>>> from repro.llm import LLMClient
>>> from repro.serving import BatchingScheduler, build_stack
>>> with BatchingScheduler(build_stack(LLMClient(), cache=True)) as served:
...     future = served.submit("Question: Who directed The Silent Mirror?")
...     text = future.result().text
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Union

from repro.errors import SchedulerClosedError
from repro.serving.stats import ServiceStats

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.llm.client import Completion
    from repro.llm.provider import CompletionProvider


def shared_prefix(prompts: List[str]) -> str:
    """Longest common string prefix of ``prompts`` (the coalesced batch's
    shareable context — template preamble, schema, few-shot examples)."""
    if not prompts:
        return ""
    lo, hi = min(prompts), max(prompts)
    i = 0
    while i < len(lo) and lo[i] == hi[i]:
        i += 1
    return lo[:i]


@dataclass
class _Request:
    """One queued request."""

    prompt: str
    model: Optional[str]
    future: "Future[Completion]" = field(default_factory=Future)
    # Stamped at submission: the max_wait_ms flush deadline counts from
    # here, not from when a dispatcher drains the request into a batch —
    # a request that queued while every dispatcher was busy has already
    # waited.
    enqueued_at: float = field(default_factory=time.monotonic)


class BatchingScheduler:
    """Bounded FIFO request queue drained by a pool of dispatchers.

    Each free dispatcher takes its own batch from the head of the queue.
    Without ``combine`` a batch is one request.

    Parameters
    ----------
    provider:
        Any completion provider — normally a composed
        :class:`~repro.serving.stack.ServingStack`.
    max_batch_size:
        With ``combine=True``, flush a batch as soon as it holds this many
        requests. Ignored otherwise (a batch is one request).
    max_wait_ms:
        With ``combine=True``, flush a partial batch once its oldest
        request has waited this long since *submission* — time spent
        queued while every dispatcher was busy counts toward the deadline,
        not just time in the batch. Ignored otherwise.
    workers:
        Dispatcher threads. ``1`` (default) executes requests strictly in
        arrival order — the deterministic mode; larger values overlap
        provider calls for throughput (the shared hot state below the
        stack is lock-protected, so this is safe but interleaves stateful
        layers nondeterministically).
    max_queue:
        Backpressure bound: ``submit`` blocks while this many requests are
        waiting for a dispatcher.
    combine:
        Collect batches of up to ``max_batch_size`` requests and dispatch
        each through one ``complete_batch`` call with the common prompt
        prefix shared (cache/cascade layers pass batches through
        untouched, by design). Single-request batches and batches mixing
        models fall back to per-item ``complete``.
    stats:
        Shared :class:`ServiceStats`; batch sizes and queue depths are
        recorded here. Defaults to the provider's own ``stats`` (a composed
        stack has one), so scheduler and middleware counters land in one
        snapshot.
    """

    def __init__(
        self,
        provider: "CompletionProvider",
        *,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        workers: int = 1,
        max_queue: int = 1024,
        combine: bool = False,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self.provider = provider
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.workers = workers
        self.max_queue = max_queue
        self.combine = combine
        if stats is None:
            stats = getattr(provider, "stats", None)
        self.stats = stats if stats is not None else ServiceStats()

        self._lock = threading.Lock()
        # Two conditions for the dispatchers: the one collecting a batch
        # waits on _new_request, the others wait on _turn. Were they one
        # condition, submit's notify() could wake a dispatcher waiting for
        # the turn instead of the collecting one, and the wake-up is lost.
        self._new_request = threading.Condition(self._lock)
        self._turn = threading.Condition(self._lock)
        self._collecting = False  # a dispatcher holds the collecting turn
        self._not_full = threading.Condition(self._lock)
        self._queue: Deque[_Request] = deque()
        self._closed = False

        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop, name=f"repro-sched-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._dispatchers:
            thread.start()

    # ------------------------------------------------------------ client API

    def submit(
        self, prompt: str, model: Optional[str] = None, *, tenant: Optional[str] = None
    ) -> "Future[Completion]":
        """Enqueue one request; returns the future for its completion.

        ``tenant`` is part of the :class:`~repro.llm.provider.Submitter`
        contract and ignored here: one scheduler fronts one stack, which
        serves one tenant.

        Raises :class:`~repro.errors.SchedulerClosedError` if the
        scheduler is closed — including when ``close()`` lands while this
        submitter is blocked on a full queue: close wakes every blocked
        submitter, and each raises instead of waiting forever.
        """
        with self._lock:
            # Backpressure wait. _closed is re-checked on *every* wakeup
            # before going back to sleep: close() flips the flag and
            # notify_all()s this condition under the same lock, so a
            # submitter parked here can never miss the close and wait on a
            # condition nobody signals again.
            while not self._closed and len(self._queue) >= self.max_queue:
                self._not_full.wait()
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            request = _Request(prompt=prompt, model=model)
            self._queue.append(request)
            self._new_request.notify()
        self.stats.record_submit()
        return request.future

    def complete(self, prompt: str, model: Optional[str] = None) -> "Completion":
        """Synchronous single request through the queue."""
        return self.submit(prompt, model=model).result()

    def complete_many(
        self, prompts: Sequence[str], model: Optional[str] = None
    ) -> List["Completion"]:
        """Answer a whole workload; results come back in ``prompts`` order.

        The prompts are submitted in order from the calling thread, so with
        ``workers=1`` the result is bit-identical to the serial loop. The
        first failed request re-raises its exception, and so does a failed
        submission (e.g. :class:`~repro.errors.SchedulerClosedError` when
        ``close()`` lands mid-workload).
        """
        futures = [self.submit(prompt, model=model) for prompt in prompts]
        return [future.result() for future in futures]

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain and join the worker threads.

        Wakes every submitter blocked on a full queue (each raises
        :class:`~repro.errors.SchedulerClosedError`); requests already
        accepted are still dispatched and their futures resolved."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._new_request.notify_all()
                self._not_full.notify_all()
        # Join strictly outside the lock: the dispatchers need it to drain
        # the remaining queued requests. Joining under the lock deadlocks
        # a close(wait=True) that follows a close(wait=False) while workers
        # are still draining.
        if wait:
            for thread in self._dispatchers:
                thread.join()

    def __enter__(self) -> "BatchingScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet started: no dispatcher has taken
        them from the queue."""
        with self._lock:
            return len(self._queue)

    @property
    def _batch_limit(self) -> int:
        """Requests one dispatcher takes at once: a batch is one request
        unless ``combine`` is set."""
        return self.max_batch_size if self.combine else 1

    @property
    def concurrency(self) -> int:
        """Requests the dispatchers can start at once: one batch per
        worker."""
        return self.workers * self._batch_limit

    def describe(self) -> str:
        """The provider's pipeline with the scheduler stage prepended."""
        inner = (
            self.provider.describe()
            if hasattr(self.provider, "describe")
            else type(self.provider).__name__
        )
        return f"scheduler(batch={self._batch_limit}, workers={self.workers}) -> {inner}"

    # ------------------------------------------------------------ dispatchers

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while self._collecting:
                    self._turn.wait()
                self._collecting = True
                try:
                    batch = self._next_batch()
                finally:
                    self._collecting = False
                    self._turn.notify()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> Optional[List[_Request]]:
        """Block until a batch is due (size, timeout, or shutdown drain).

        The caller holds ``self._lock`` and the collecting turn."""
        limit = self._batch_limit
        batch: List[_Request] = []
        while True:
            while len(batch) < limit and self._queue:
                batch.append(self._queue.popleft())
                self._not_full.notify()
            # max_wait_ms=0 means "flush immediately, never spin": whatever
            # is queued right now goes out without consulting the clock.
            if len(batch) >= limit or (batch and (self.max_wait_ms == 0 or self._closed)):
                return batch
            if not batch:
                if self._closed:
                    return None  # empty-queue shutdown
                self._new_request.wait()
                continue
            # The deadline counts from the oldest *submission* in the batch
            # (not from drain time), as the flush contract promises; the
            # queue is FIFO, so that is the batch's first request.
            remaining = batch[0].enqueued_at + self.max_wait_ms / 1000.0 - time.monotonic()
            if remaining <= 0:
                return batch  # flush on timeout
            self._new_request.wait(timeout=remaining)

    def _run_batch(self, batch: List[_Request]) -> None:
        self.stats.record_batch(len(batch), self.queue_depth)
        # A future cancelled while it queued never reaches the provider.
        live = [request for request in batch if request.future.set_running_or_notify_cancel()]
        if len(live) > 1 and all(request.model == live[0].model for request in live):
            # Only combine=True collects more than one request.
            prefix = shared_prefix([request.prompt for request in live])
            try:
                results: List[Union["Completion", Exception]] = list(
                    self.provider.complete_batch(
                        prefix,
                        [request.prompt[len(prefix):] for request in live],
                        model=live[0].model,
                    )
                )
            except Exception as exc:  # one combined call: the whole batch fails
                results = [exc] * len(live)
            for request, result in zip(live, results):
                self._resolve(request, result)
            return
        for request in live:
            try:
                result = self.provider.complete(request.prompt, model=request.model)
            except Exception as exc:  # per-item isolation
                result = exc
            self._resolve(request, result)

    def _resolve(self, request: _Request, result: Union["Completion", Exception]) -> None:
        self.stats.record_completion()
        if isinstance(result, Exception):
            request.future.set_exception(result)
        else:
            request.future.set_result(result)
