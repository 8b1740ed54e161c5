"""Async gateway: SLO-aware admission control in front of the serving tier.

The thread-based :class:`~repro.serving.scheduler.BatchingScheduler` is
closed-loop: a caller blocks until its future resolves, and overload shows
up as unbounded queue wait rather than shed load. :class:`AsyncGateway` is
the open-loop front door — an asyncio layer that decides, per request,
whether to *serve*, *wait*, *degrade* or *shed*:

* **Priority classes** — requests name a class (default
  ``interactive > standard > batch``); the dispatch pump always drains the
  highest non-empty class first (strict priority), and within a class
  picks the earliest absolute deadline (EDF), breaking ties by submission
  order. With one class and no deadlines this degenerates to FIFO, which
  is what keeps the deterministic core intact (see below).
* **One queue** — in front of a scheduler the gateway forwards only what
  the backend can start (its
  :attr:`~repro.llm.provider.Submitter.concurrency`), so the whole backlog
  waits here, where class, deadline and shedding apply, and none of it in
  the backend's FIFO. A cluster reports no concurrency, since each
  request runs on its key's shard; there the window is ``max_inflight``
  and forwarded requests may still queue class-blind on a busy shard.
* **Admission control** — each class has a bounded queue
  (``max_queue_per_class``); a submit against a full queue parks on an
  asyncio future until the pump drains a slot (backpressure) instead of
  growing the queue without bound.
* **Load shedding** — a request whose ``deadline_ms`` is already ``<= 0``
  at submit is *never* dispatched: it fails immediately with a typed
  :class:`~repro.errors.DeadlineExceededError`. A request whose deadline
  lapses while it waits in queue is not forwarded to the primary model
  either — serving it would burn capacity on an answer nobody can use.
  Nor is one the backend cannot finish in time: the gateway keeps a
  smoothed dispatch-to-resolve time of the backend, and while the backend
  is busy a queued request with less slack than that is treated as
  expired. Every wake scans the head of each class for such requests
  before it dispatches, whether or not a backend slot is free. An idle
  backend is never predicted, so an estimate left high by a slow phase
  cannot shed isolated requests.
* **Graceful degradation** — instead of a bare timeout, an
  expired-in-queue request is routed through the existing
  :meth:`~repro.serving.resilience.ResilienceMiddleware.degrade` fallback
  chain (cheaper models → read-only cache peek → typed error), so the
  caller gets a cheap partial answer *now* rather than a full answer too
  late. The fallback runs on the event loop's executor and holds no
  backend slot. With no resilience layer in the stack the request is
  shed.

Determinism contract: the pump forwards requests to the backend in a
total order that is a pure function of (class priority, deadline,
submission sequence). With a single-worker backend and no deadlines, the
forward order *is* the submission order, so the gateway is bit-identical
to a serial ``ServingStack.complete`` loop over the same request stream —
every stateful layer (cache, budget, meter) mutates in exactly the same
sequence. ``tests/serving/test_gateway.py`` pins this equivalence with
hypothesis-generated class interleavings.

The backend is a :class:`~repro.llm.provider.Submitter` — a
:class:`~repro.serving.scheduler.BatchingScheduler` or a
:class:`~repro.serving.cluster.ServingCluster`, built and closed by the
caller — and every request is forwarded as ``backend.submit(prompt,
model=, tenant=)``, nothing else. A request is a :class:`GatewayRequest`
or a bare prompt string; :meth:`AsyncGateway.enqueue` returns its
:class:`GatewayTicket`, and a caller that wants every outcome awaits the
tickets' futures.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DeadlineExceededError, SchedulerClosedError
from repro.llm.client import Completion
from repro.serving.resilience import ResilienceMiddleware
from repro.serving.stats import ServiceStats

DEFAULT_CLASSES = ("interactive", "standard", "batch")
_SMOOTHING = 0.2  # weight of the newest sample in the backend-time estimate


@dataclass(frozen=True)
class GatewayRequest:
    """One request as the gateway sees it.

    ``deadline_ms`` is relative to submission time (simulated SLO):
    ``None`` means "no deadline — never shed, never degraded".
    ``priority`` must name one of the gateway's classes; ``None`` uses
    ``standard`` when the gateway has that class, else its first.
    ``tenant`` is forwarded to the backend (``None`` is its default
    tenant; a single-stack scheduler ignores it).
    """

    prompt: str
    model: Optional[str] = None
    priority: Optional[str] = None
    deadline_ms: Optional[float] = None
    tenant: Optional[str] = None


@dataclass
class GatewayTicket:
    """Handle for one admitted (or immediately shed) request.

    ``future`` is an asyncio future resolving to the :class:`Completion`
    (full or degraded) or raising the terminal error. ``status`` moves
    ``queued -> ok | degraded | shed | error``; ``late`` marks a full
    answer that resolved after its deadline (delivered, but it counts
    against goodput)."""

    seq: int
    request: GatewayRequest
    priority: str
    enqueued_at: float
    abs_deadline: Optional[float]
    future: "asyncio.Future[Completion]"
    status: str = "queued"
    queue_ms: float = 0.0
    late: bool = False


def _find_resilience(root: object) -> Optional[ResilienceMiddleware]:
    """Walk a stack's provider/inner chain for the resilience layer."""
    seen = set()
    node = root
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, ResilienceMiddleware):
            return node
        node = getattr(node, "provider", None) or getattr(node, "inner", None)
    return None


class AsyncGateway:
    """Asyncio front door with priority classes, deadlines and shedding.

    Parameters
    ----------
    backend:
        A :class:`~repro.llm.provider.Submitter` the caller builds and
        closes (a ``BatchingScheduler`` or a ``ServingCluster``).
    classes:
        Priority classes, highest priority first. A request that names
        none goes to ``"standard"`` when present, else to the first.
    max_queue_per_class:
        Bound on each class's admission queue; submits beyond it park on
        backpressure until the pump frees a slot.
    max_inflight:
        Upper bound on requests forwarded to the backend but not yet
        resolved. The window is also clamped to the backend's
        ``concurrency`` when it reports one, so a forwarded request starts
        at once rather than wait class-blind in the backend's queue, and
        to its queue bound when known, so forwarding never blocks the
        event loop. Only a backend without ``concurrency`` (a cluster)
        is held to ``max_inflight`` alone.
    degrader:
        ``"auto"`` (find :class:`ResilienceMiddleware` in the backend's
        layer chain), ``None`` (shed instead of degrading), or a
        ``(prompt, model) -> Completion`` callable such as a resilience
        layer's ``degrade``.
    clock:
        Monotonic-seconds callable; injectable for deterministic tests.
    """

    def __init__(
        self,
        backend: object,
        *,
        classes: Sequence[str] = DEFAULT_CLASSES,
        max_queue_per_class: int = 256,
        max_inflight: int = 64,
        degrader: Union[str, None, Callable] = "auto",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not classes:
            raise ValueError("at least one priority class is required")
        if len(set(classes)) != len(classes):
            raise ValueError("priority classes must be unique")
        if max_queue_per_class < 1:
            raise ValueError("max_queue_per_class must be >= 1")
        if not hasattr(backend, "submit"):
            raise TypeError(
                f"backend must be a Submitter (a BatchingScheduler or a ServingCluster), "
                f"not {type(backend).__name__}"
            )
        self.classes: Tuple[str, ...] = tuple(classes)
        self.default_class = "standard" if "standard" in self.classes else self.classes[0]
        self.max_queue_per_class = max_queue_per_class
        self._clock = clock

        # ---- degradation wiring ---------------------------------------
        self._degrade_fn: Optional[Callable[[str, Optional[str]], Completion]] = None
        if degrader == "auto":
            layer = _find_resilience(backend)
            if layer is not None:
                self._degrade_fn = layer.degrade
        elif callable(degrader):
            self._degrade_fn = degrader  # type: ignore[assignment]
        elif degrader is not None:
            raise ValueError(f"unsupported degrader: {degrader!r}")

        # ---- backend wiring -------------------------------------------
        self._backend = backend
        # Forward no more than the backend can start: the rest waits here,
        # where class, EDF and shedding apply. A bounded backend queue
        # blocks its submitter when full, so never more than it takes.
        if backend.concurrency is not None:
            max_inflight = min(max_inflight, backend.concurrency)
        backend_queue_bound = getattr(backend, "max_queue", None)
        if backend_queue_bound is not None:
            max_inflight = min(max_inflight, backend_queue_bound)
        self.max_inflight = max(1, max_inflight)
        self.stats: ServiceStats = backend.stats

        # ---- queueing state (event-loop thread only) ------------------
        # Per class: min-heap of (abs_deadline | +inf, seq, ticket) — EDF
        # within class, submission order as the tie-break.
        self._queues: Dict[str, List[Tuple[float, int, GatewayTicket]]] = {
            cls: [] for cls in self.classes
        }
        self._waiters: Dict[str, Deque["asyncio.Future[None]"]] = {
            cls: deque() for cls in self.classes
        }
        self._seq = 0
        self._inflight = 0  # forwarded or degrading: what close() drains
        self._forwarded = 0  # at the backend: what the window bounds
        # Smoothed dispatch -> resolve seconds of the backend; None until
        # the first completion teaches it.
        self._backend_s: Optional[float] = None
        self._started = False
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._pump_task: Optional["asyncio.Task[None]"] = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> "AsyncGateway":
        """Bind to the running loop and start the dispatch pump."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._pump_task = self._loop.create_task(self._pump())
        self._started = True
        return self

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Stop accepting and drain queued + inflight work; the backend
        stays open. Submits parked on backpressure raise
        :class:`SchedulerClosedError` immediately."""
        if not self._started:
            return
        self._closing = True
        for dq in self._waiters.values():
            while dq:
                waiter = dq.popleft()
                if not waiter.done():
                    waiter.set_exception(SchedulerClosedError("gateway is closed"))
        assert self._wake is not None and self._pump_task is not None
        self._wake.set()
        await self._pump_task

    # ---------------------------------------------------------- submission

    async def enqueue(self, request: Union[str, GatewayRequest]) -> GatewayTicket:
        """Admit one request, a :class:`GatewayRequest` or a bare prompt;
        returns its ticket (future may already have failed for an
        expired-at-submit shed). Parks on backpressure while the class
        queue is full."""
        req = request if isinstance(request, GatewayRequest) else GatewayRequest(request)
        cls = req.priority or self.default_class
        if cls not in self._queues:
            raise ValueError(f"unknown priority class {cls!r}")
        if not self._started:
            await self.start()
        if self._closing:
            raise SchedulerClosedError("gateway is closed")
        assert self._loop is not None and self._wake is not None

        self.stats.record_gateway_submit(cls)
        now = self._clock()
        abs_deadline = None
        if req.deadline_ms is not None:
            abs_deadline = now + req.deadline_ms / 1000.0

        ticket = GatewayTicket(
            seq=-1,
            request=req,
            priority=cls,
            enqueued_at=now,
            abs_deadline=abs_deadline,
            future=self._loop.create_future(),
        )
        # Shed on arrival: an already-expired request never takes a queue
        # slot and is never dispatched.
        if req.deadline_ms is not None and req.deadline_ms <= 0:
            self._resolve_shed(ticket, "shed_at_submit", waited_ms=0.0)
            return ticket

        # Backpressure: park until the pump frees a slot in this class.
        while len(self._queues[cls]) >= self.max_queue_per_class:
            if self._closing:
                raise SchedulerClosedError("gateway closed while submit waited")
            waiter: "asyncio.Future[None]" = self._loop.create_future()
            self._waiters[cls].append(waiter)
            self.stats.record_gateway_backpressure()
            try:
                await waiter
            finally:
                if not waiter.done():
                    waiter.cancel()
                try:
                    self._waiters[cls].remove(waiter)
                except ValueError:
                    pass
        if self._closing:
            raise SchedulerClosedError("gateway closed while submit waited")

        # The deadline aged while we waited for admission; shed now rather
        # than occupy a slot with a hopeless request. The slot we were woken
        # for is still free: hand the wake-up on, or the submitters parked
        # behind us wait for a dequeue that may never come.
        if abs_deadline is not None and self._clock() >= abs_deadline:
            waited = (self._clock() - now) * 1000.0
            self._resolve_shed(ticket, "shed_at_submit", waited_ms=waited)
            self._release_slot(cls)
            return ticket

        ticket.seq = self._seq
        self._seq += 1
        key = abs_deadline if abs_deadline is not None else math.inf
        heapq.heappush(self._queues[cls], (key, ticket.seq, ticket))
        self._wake.set()
        return ticket

    async def submit(self, request: Union[str, GatewayRequest]) -> Completion:
        """Admit one request and await its completion (full or degraded).

        Raises :class:`~repro.errors.DeadlineExceededError` if the request
        was shed, or whatever terminal error the backend raised."""
        ticket = await self.enqueue(request)
        return await ticket.future

    # ------------------------------------------------------------- pumping

    def queue_depths(self) -> Dict[str, int]:
        """Current per-class admission queue depths."""
        return {cls: len(heap) for cls, heap in self._queues.items()}

    async def _pump(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            self._advance()
            if (
                self._closing
                and self._inflight == 0
                and not any(self._queues.values())
            ):
                return

    def _advance(self) -> None:
        """Shed doomed heads, then forward while the window has room:
        strict class priority, EDF within class. The scan runs again after
        each dispatch, since a busy backend is what arms the prediction."""
        while True:
            self._shed_doomed_heads()
            if self._forwarded >= self.max_inflight:
                return
            ticket = self._pop_next()
            if ticket is None:
                return
            self._dispatch(ticket, self._clock())

    def _shed_doomed_heads(self) -> None:
        """Shed or degrade, in every class, queued requests that have
        expired or that the busy backend is predicted to finish after their
        deadline, whether or not a slot is free. A class's head has its
        least slack, so the scan stops at the first head that can make it."""
        now = self._clock()
        # Predict only while the backend is busy: an idle backend starts at
        # once, whatever an earlier slow phase taught.
        predicted = self._backend_s if self._forwarded > 0 else None
        for cls in self.classes:
            heap = self._queues[cls]
            while heap:
                key, _, ticket = heap[0]
                slack = key - now  # +inf without a deadline: never doomed
                if slack <= 0:
                    reason = "deadline expired in queue"
                elif predicted is not None and slack < predicted:
                    reason = (
                        f"predicted backend time {predicted * 1000.0:.1f}ms exceeds "
                        f"remaining slack {slack * 1000.0:.1f}ms"
                    )
                else:
                    break
                heapq.heappop(heap)
                self._release_slot(cls)
                self._expire(ticket, now, reason)

    def _pop_next(self) -> Optional[GatewayTicket]:
        for cls in self.classes:
            heap = self._queues[cls]
            if heap:
                _, _, ticket = heapq.heappop(heap)
                self._release_slot(cls)
                return ticket
        return None

    def _release_slot(self, cls: str) -> None:
        waiters = self._waiters[cls]
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    def _settle(
        self,
        ticket: GatewayTicket,
        status: str,
        outcome: Union[Completion, BaseException],
        *,
        counted_as: Optional[str] = None,
    ) -> None:
        """The one place a ticket ends: status, outcome counter, future."""
        ticket.status = status
        self.stats.record_gateway_outcome(
            ticket.priority, counted_as or status, queue_wait_ms=ticket.queue_ms, late=ticket.late
        )
        if not ticket.future.done():
            if isinstance(outcome, BaseException):
                ticket.future.set_exception(outcome)
            else:
                ticket.future.set_result(outcome)

    @staticmethod
    def _annotated(completion: Completion, ticket: GatewayTicket, **marker: object) -> Completion:
        """``completion`` with a ``serving.gateway`` metadata entry saying
        what the gateway did to it (``late=True`` / ``degraded=True``)."""
        metadata = dict(completion.metadata)
        metadata["serving.gateway"] = {
            **marker,
            "deadline_ms": ticket.request.deadline_ms,
            "queue_ms": round(ticket.queue_ms, 4),
        }
        return completion.with_usage(completion.usage, completion.cost, metadata=metadata)

    def _dispatch(self, ticket: GatewayTicket, now: float) -> None:
        self._inflight += 1
        self._forwarded += 1
        ticket.queue_ms = (now - ticket.enqueued_at) * 1000.0
        request = ticket.request
        try:
            # Looked up per call: what serves the request is whatever
            # ``submit`` the backend has *now*.
            backend_future = self._backend.submit(
                request.prompt, model=request.model, tenant=request.tenant
            )
        except Exception as exc:
            self._inflight -= 1
            self._forwarded -= 1
            self._settle(ticket, "error", exc)
            return
        assert self._loop is not None
        backend_future.add_done_callback(
            lambda f: self._loop.call_soon_threadsafe(self._on_backend_done, ticket, f)
        )

    def _on_backend_done(self, ticket: GatewayTicket, backend_future) -> None:
        self._inflight -= 1
        self._forwarded -= 1
        now = self._clock()
        took = now - (ticket.enqueued_at + ticket.queue_ms / 1000.0)
        previous = self._backend_s
        self._backend_s = took if previous is None else previous + _SMOOTHING * (took - previous)
        exc = backend_future.exception()
        if exc is not None:
            self._settle(ticket, "error", exc)
        else:
            completion = backend_future.result()
            if ticket.abs_deadline is not None and now > ticket.abs_deadline:
                # Delivered, but after the deadline: mark it so callers
                # (and goodput accounting) can tell. No-deadline requests
                # are returned untouched — that is the determinism path.
                ticket.late = True
                completion = self._annotated(completion, ticket, late=True)
            self._settle(ticket, "ok", completion)
        # Fill the freed slot now, not one pump-task hop later; the pump
        # needs waking only to finish a close.
        self._advance()
        if self._closing:
            assert self._wake is not None
            self._wake.set()

    # ------------------------------------------------------ shed / degrade

    def _resolve_shed(
        self,
        ticket: GatewayTicket,
        status: str,
        waited_ms: float,
        reason: str = "deadline expired",
    ) -> None:
        ticket.queue_ms = waited_ms
        error = DeadlineExceededError(
            f"request shed: {reason} (deadline {ticket.request.deadline_ms}ms, "
            f"waited {waited_ms:.1f}ms in class {ticket.priority!r})",
            deadline_ms=ticket.request.deadline_ms or 0.0,
            waited_ms=waited_ms,
        )
        self._settle(ticket, "shed", error, counted_as=status)

    def _expire(self, ticket: GatewayTicket, now: float, reason: str) -> None:
        """Deadline lapsed, or predicted to lapse, in queue: degrade through
        the resilience chain when one is wired, otherwise shed. ``reason``
        says which, in the error message or the degraded marker."""
        waited_ms = (now - ticket.enqueued_at) * 1000.0
        if self._degrade_fn is None:
            self._resolve_shed(ticket, "shed", waited_ms, reason)
            return
        # Runs on the executor, not on a backend worker: the degradation
        # is waited for at close but holds no slot of the window.
        self._inflight += 1
        ticket.queue_ms = waited_ms
        assert self._loop is not None
        degrade_future = self._loop.run_in_executor(
            None, self._degrade_fn, ticket.request.prompt, ticket.request.model
        )
        degrade_future.add_done_callback(lambda f: self._on_degrade_done(ticket, f, reason))

    def _on_degrade_done(self, ticket: GatewayTicket, degrade_future, reason: str) -> None:
        self._inflight -= 1
        exc = degrade_future.exception()
        if exc is not None:
            # The fallback chain came up empty too: shed, chaining the
            # exhaustion error as the cause.
            error = DeadlineExceededError(
                f"request shed: {reason} and degradation failed ({type(exc).__name__})",
                deadline_ms=ticket.request.deadline_ms or 0.0,
                waited_ms=ticket.queue_ms,
            )
            error.__cause__ = exc
            self._settle(ticket, "shed", error)
        else:
            completion = self._annotated(
                degrade_future.result(), ticket, degraded=True, reason=reason
            )
            self._settle(ticket, "degraded", completion)
        assert self._wake is not None
        self._wake.set()
