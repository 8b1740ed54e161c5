"""Request scheduler: a bounded queue served by a pool of dispatchers.

The serving stack answers one request per call. :class:`BatchingScheduler`
puts a bounded queue in front of any
:class:`~repro.llm.provider.CompletionProvider` and serves it with a pool
of dispatcher threads:

1. **submit** — client threads enqueue ``(prompt, model)`` and get back a
   :class:`concurrent.futures.Future`. Every request carries a *submission
   index* (auto-assigned, or supplied explicitly when callers partition one
   logical workload across threads).
2. **take** — a free dispatcher takes the collecting turn and drains its
   own batch from the reorder buffer in strict submission-index order.
   Without ``combine`` a batch is exactly one request, so no request waits
   behind another one's provider call while a dispatcher is free. With
   ``combine=True`` the dispatcher keeps collecting until the batch holds
   ``max_batch_size`` requests or its oldest request has waited
   ``max_wait_ms``.
3. **dispatch** — with ``combine=True`` a batch becomes one
   ``complete_batch`` call whose shared prefix is the common string prefix
   of its prompts (query combination: one call answers many queries), so
   the terminal client's shared-prefix token refund and the budget layer's
   batch netting are exercised under load; a single request is completed
   through every middleware layer (cache included).
4. **resolve** — futures resolve strictly in submission order, whatever
   order dispatchers finish in.

Determinism: completions are pure functions of ``(seed, model, prompt)``,
and with ``workers=1`` all stateful layers (semantic cache, budget, usage
meter) are mutated in exactly the submission order — a concurrent run is
bit-identical to the serial loop regardless of how client threads
interleave their submissions. ``seed_stride > 0`` instead derives each
request's RNG stream from its submission index via ``reseeded(index *
seed_stride)``, decoupling results from worker assignment when callers
*want* independent streams per request; the default stride of 0 shares the
serial stream.

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

import heapq
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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

    index: int
    prompt: str
    model: Optional[str]
    future: "Future[Completion]" = field(default_factory=Future)
    # Stamped at submission: the max_wait_ms flush deadline counts from
    # here, not from when a dispatcher drains the request into a batch —
    # a request that sat behind an explicit-index gap has already waited.
    enqueued_at: float = field(default_factory=time.monotonic)


class BatchingScheduler:
    """Bounded request queue drained by a pool of dispatchers.

    Each free dispatcher takes its own batch from the queue in submission
    order. Without ``combine`` a batch is one request.

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
        parked behind an explicit-index gap counts toward the deadline, not
        just time in the batch. Ignored otherwise.
    workers:
        Dispatcher threads. ``1`` (default) executes requests strictly in
        submission order — the deterministic mode; larger values overlap
        provider calls for throughput (the shared hot state below the
        stack is lock-protected, so this is safe but interleaves stateful
        layers nondeterministically).
    max_queue:
        Backpressure bound: auto-indexed ``submit`` blocks while this many
        requests are waiting for a dispatcher. Explicitly indexed
        submissions are exempt (blocking one could withhold the very index
        the dispatchers are waiting on).
    combine:
        Collect batches of up to ``max_batch_size`` requests and dispatch
        each through one ``complete_batch`` call with the common prompt
        prefix shared (cache/cascade layers pass batches through
        untouched, by design). Single-request batches and batches mixing
        models fall back to per-item ``complete``.
    seed_stride:
        When > 0 and the provider is reseedable, request ``i`` is answered
        by ``provider.reseeded(i * seed_stride)``. Ignored for combined
        batches (one call answers many indexes).
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
        seed_stride: int = 0,
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
        self.seed_stride = seed_stride
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
        self._pending: Dict[int, _Request] = {}  # reorder buffer, by index
        self._next_auto = 0  # next auto-assigned submission index
        self._next_dispatch = 0  # next index a dispatcher will drain
        self._closed = False

        # Resolution gate: futures resolve in submission-index order.
        self._resolve_lock = threading.Lock()
        self._outstanding: List[int] = []  # min-heap of unresolved indexes
        self._ready: Dict[int, Tuple[_Request, Optional[Tuple[str, object]]]] = {}

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
        self,
        prompt: str,
        model: Optional[str] = None,
        *,
        tenant: Optional[str] = None,
        index: Optional[int] = None,
    ) -> "Future[Completion]":
        """Enqueue one request; returns the future for its completion.

        ``tenant`` is part of the :class:`~repro.llm.provider.Submitter`
        contract and ignored here: one scheduler fronts one stack, which
        serves one tenant. ``index`` pins the submission index explicitly — callers that fan
        one ordered workload out over several submitter threads use this to
        keep the *logical* order independent of thread interleaving.
        Explicit indexes must eventually cover a contiguous range: no
        dispatcher drains past a gap until it fills (or the scheduler
        closes).

        Raises :class:`~repro.errors.SchedulerClosedError` if the
        scheduler is closed — including when ``close()`` lands while this
        submitter is blocked on a full queue: close wakes every blocked
        submitter, and each raises instead of waiting forever.
        """
        with self._lock:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if index is None:
                # Backpressure wait. _closed is re-checked on *every*
                # wakeup before going back to sleep: close() flips the
                # flag and notify_all()s this condition under the same
                # lock, so a submitter parked here can never miss the
                # close and wait on a condition nobody signals again.
                while len(self._pending) >= self.max_queue:
                    if self._closed:
                        raise SchedulerClosedError(
                            "scheduler closed while submit waited for queue space"
                        )
                    self._not_full.wait()
                if self._closed:
                    raise SchedulerClosedError(
                        "scheduler closed while submit waited for queue space"
                    )
                index = self._next_auto
                self._next_auto += 1
            else:
                if index < self._next_dispatch or index in self._pending:
                    raise ValueError(f"submission index {index} already used")
                if index >= self._next_auto:
                    self._next_auto = index + 1
            request = _Request(index=index, prompt=prompt, model=model)
            self._pending[index] = request
            with self._resolve_lock:
                heapq.heappush(self._outstanding, index)
            self._new_request.notify()
        self.stats.record_submit()
        return request.future

    def reserve(self, n: int) -> int:
        """Reserve ``n`` consecutive submission indexes; returns the first.

        The block is then filled with ``submit(..., index=base + i)`` calls,
        typically from several threads at once."""
        if n < 0:
            raise ValueError("n must be non-negative")
        with self._lock:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            base = self._next_auto
            self._next_auto += n
            return base

    def complete(self, prompt: str, model: Optional[str] = None) -> "Completion":
        """Synchronous single request through the queue."""
        return self.submit(prompt, model=model).result()

    def complete_many(
        self,
        prompts: Sequence[str],
        model: Optional[str] = None,
        submitters: int = 1,
    ) -> List["Completion"]:
        """Answer a whole workload; results come back in ``prompts`` order.

        ``submitters`` client threads split the workload round-robin, each
        submitting with an explicit submission index so the scheduler
        dispatches in *logical* order however the threads interleave — with
        ``workers=1`` the result is bit-identical to the serial loop.
        The first failed request re-raises its exception, and so does a
        failed submission (e.g. :class:`~repro.errors.SchedulerClosedError`
        when ``close()`` lands mid-workload) whichever thread made it.
        """
        if not prompts:
            return []
        submitters = max(1, min(submitters, len(prompts)))
        base = self.reserve(len(prompts))
        futures: List[Optional[Future]] = [None] * len(prompts)
        errors: List[Exception] = []

        def feed(offset: int) -> None:
            # A feeder thread that dies takes its exception with it and
            # leaves its futures unset, so record it for the caller.
            try:
                for i in range(offset, len(prompts), submitters):
                    futures[i] = self.submit(prompts[i], model=model, index=base + i)
            except Exception as exc:
                errors.append(exc)

        if submitters == 1:
            feed(0)
        else:
            threads = [
                threading.Thread(target=feed, args=(offset,), daemon=True)
                for offset in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
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
        # the remaining pending requests. Joining under the lock deadlocks
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
            return len(self._pending)

    @property
    def concurrency(self) -> int:
        """Requests the dispatchers can start at once: one batch per
        worker, and a batch is one request unless ``combine`` is set."""
        return self.workers * (self.max_batch_size if self.combine else 1)

    def describe(self) -> str:
        """The provider's pipeline with the scheduler stage prepended."""
        inner = (
            self.provider.describe()
            if hasattr(self.provider, "describe")
            else type(self.provider).__name__
        )
        return f"scheduler(batch={self.max_batch_size}, workers={self.workers}) -> {inner}"

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
        limit = self.max_batch_size if self.combine else 1
        batch: List[_Request] = []
        deadline: Optional[float] = None
        while True:
            # Drain contiguously from the reorder buffer.
            while len(batch) < limit and self._next_dispatch in self._pending:
                request = self._pending.pop(self._next_dispatch)
                batch.append(request)
                self._next_dispatch += 1
                # Deadline counts from the oldest *submission* in the
                # batch (not from drain time), as the flush contract
                # promises; submission times need not be in index order,
                # hence the min. With max_wait_ms=0 there is no deadline
                # to track at all — see the flush below.
                if self.max_wait_ms > 0:
                    candidate = request.enqueued_at + self.max_wait_ms / 1000.0
                    if deadline is None or candidate < deadline:
                        deadline = candidate
                self._not_full.notify()
            if len(batch) >= limit:
                return batch  # flush on size
            if batch and self.max_wait_ms == 0:
                # max_wait_ms=0 means "flush immediately, never spin":
                # whatever is contiguous right now goes out without
                # consulting the clock.
                return batch
            if self._closed:
                if batch:
                    return batch
                if not self._pending:
                    return None  # empty-queue shutdown
                # Submissions have stopped; gaps can never fill. Jump to
                # the smallest remaining index and keep draining in order.
                self._next_dispatch = min(self._pending)
                continue
            if batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return batch  # flush on timeout
                self._new_request.wait(timeout=remaining)
            else:
                self._new_request.wait()

    def _provider_for(self, request: _Request) -> "CompletionProvider":
        if self.seed_stride and hasattr(self.provider, "reseeded"):
            return self.provider.reseeded(request.index * self.seed_stride)
        return self.provider

    def _run_batch(self, batch: List[_Request]) -> None:
        self.stats.record_batch(len(batch), self.queue_depth)
        # A future cancelled while it queued never reaches the provider; it
        # still passes through _resolve, so later futures are released.
        live = [request for request in batch if request.future.set_running_or_notify_cancel()]
        outcomes: Dict[int, Tuple[str, object]] = {}
        if len(live) > 1 and all(request.model == live[0].model for request in live):
            # Only combine=True collects more than one request.
            prefix = shared_prefix([request.prompt for request in live])
            try:
                completions = self.provider.complete_batch(
                    prefix,
                    [request.prompt[len(prefix):] for request in live],
                    model=live[0].model,
                )
                outcomes = {
                    request.index: ("ok", completion)
                    for request, completion in zip(live, completions)
                }
            except Exception as exc:  # one combined call: the whole batch fails
                outcomes = {request.index: ("err", exc) for request in live}
        else:
            for request in live:
                try:
                    completion = self._provider_for(request).complete(
                        request.prompt, model=request.model
                    )
                    outcomes[request.index] = ("ok", completion)
                except Exception as exc:  # per-item isolation
                    outcomes[request.index] = ("err", exc)
        self._resolve(batch, outcomes)

    def _resolve(self, batch: List[_Request], outcomes: Dict[int, Tuple[str, object]]) -> None:
        """Publish outcomes; release futures strictly in index order. A
        request without an outcome was cancelled: it only leaves the gate."""
        releasable: List[Tuple[_Request, Optional[Tuple[str, object]]]] = []
        with self._resolve_lock:
            for request in batch:
                self._ready[request.index] = (request, outcomes.get(request.index))
            while self._outstanding and self._outstanding[0] in self._ready:
                releasable.append(self._ready.pop(heapq.heappop(self._outstanding)))
        # Resolve outside the gate lock: done-callbacks run in this thread.
        for request, outcome in releasable:
            if outcome is None:
                continue
            self.stats.record_completion()
            kind, value = outcome
            if kind == "ok":
                request.future.set_result(value)
            else:
                request.future.set_exception(value)
