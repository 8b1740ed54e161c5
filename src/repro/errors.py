"""Exception hierarchy shared across the :mod:`repro` library.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch a single base class at application boundaries while still being able to
distinguish failure modes programmatically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLError(ReproError):
    """Base class for errors raised by the relational engine."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""


class SQLCatalogError(SQLError):
    """A referenced table or column does not exist (or already exists)."""


class SQLTypeError(SQLError):
    """An expression was applied to values of incompatible types."""


class SQLIntegrityError(SQLError):
    """A constraint (primary key, NOT NULL) would be violated."""


class SQLTransactionError(SQLError):
    """Invalid transaction state transition (e.g. COMMIT with no BEGIN)."""


class VectorDBError(ReproError):
    """Base class for vector database errors."""


class DimensionMismatchError(VectorDBError):
    """A vector's dimensionality does not match the collection's."""


class CollectionError(VectorDBError):
    """Invalid collection operation (duplicate id, unknown id, ...)."""


class LLMError(ReproError):
    """Base class for simulated-LLM errors."""


class UnknownModelError(LLMError):
    """The requested model name is not in the registry."""


class ContextLengthExceededError(LLMError):
    """The prompt exceeds the model's context window."""


class BudgetExceededError(LLMError):
    """A spending cap configured on the client would be exceeded."""


class QuotaExceededError(LLMError):
    """A tenant's request quota (not its dollar budget) is exhausted.

    Raised by the multi-tenant serving cluster before a request is
    dispatched; distinct from :class:`BudgetExceededError` so callers can
    tell "too many requests" from "too many dollars"."""


class TransientLLMError(LLMError):
    """A service failure that a later retry may not reproduce.

    Carries the simulated time the failed attempt burned (``latency_ms``)
    and the model it targeted, so the resilience layer can account wasted
    attempts into end-to-end latency without touching the wall clock.
    """

    def __init__(self, message: str, model: str = "", latency_ms: float = 0.0) -> None:
        super().__init__(message)
        self.model = model
        self.latency_ms = latency_ms


class RateLimitError(TransientLLMError):
    """The service rejected the request for exceeding its rate limits."""


class ServiceTimeoutError(TransientLLMError):
    """The service did not answer within the request deadline."""


class ServiceUnavailableError(TransientLLMError):
    """The service is down or overloaded (HTTP 5xx analogue)."""


class ResilienceExhaustedError(LLMError):
    """Retries, fallback models and the cache all failed to produce an
    answer — the typed end of the graceful-degradation chain."""


class DeadlineExceededError(LLMError):
    """A request's deadline expired before a full answer could be produced.

    Raised by the async gateway when a request is shed: either it arrived
    already expired (``deadline_ms <= 0``), or its deadline lapsed while it
    sat in an admission queue, or the busy backend was predicted to finish
    it after the deadline, and no degraded answer could be served. The
    message says which.
    Carries the deadline and how long the request actually waited so
    callers can distinguish "hopeless on arrival" from "starved in queue".
    """

    def __init__(
        self, message: str, deadline_ms: float = 0.0, waited_ms: float = 0.0
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.waited_ms = waited_ms


class SchedulerClosedError(ReproError, RuntimeError):
    """The scheduler (or gateway) was closed while — or before — a submit
    was in flight.

    Subclasses :class:`RuntimeError` for backward compatibility with
    callers that guarded ``submit`` with ``except RuntimeError``; new code
    should catch this type. Notably raised by a submitter that was blocked
    on a full bounded queue when ``close()`` landed: close wakes every
    blocked submitter, and each raises this instead of waiting forever on
    a condition nobody will signal again.
    """


class SimulatedCrashError(LLMError):
    """The :class:`~repro.llm.faults.CrashPoint` fault fired: the simulated
    process died mid-request.

    Deliberately *not* a :class:`TransientLLMError` — a process crash is
    not something the in-process resilience layer can retry its way out
    of; it must propagate to the driver, which discards the stack and
    recovers from durable state (:mod:`repro.durability`).
    """


class ValidationError(ReproError):
    """An LLM output failed validation (Section III-E)."""


class TransformError(ReproError):
    """A data transformation (Section II-B) could not be applied."""


class PipelineError(ReproError):
    """Data-preparation pipeline search or execution failed."""
