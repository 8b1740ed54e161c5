"""The ``CompletionProvider`` protocol — the completion surface of the LLM
service.

Every component that *consumes* completions (the Section II applications,
the Section III optimizations) is written against this protocol rather than
the concrete :class:`~repro.llm.client.LLMClient`, so that any stack of
:mod:`repro.serving` middleware — cache, cascade, resilience, budget, metrics —
can stand in for the raw client transparently.

The protocol lives in the ``llm`` layer (not ``serving``) so the dependency
graph stays acyclic: ``core`` adapts providers, ``serving`` composes them,
and both import the protocol from here. :mod:`repro.serving` re-exports it
as its public home. :class:`Submitter`, the future-returning contract of
the serving tiers, is stated next to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from concurrent.futures import Future

    import numpy as np

    from repro.llm.client import Completion


@runtime_checkable
class CompletionProvider(Protocol):
    """Anything that can answer prompts: a raw client or a middleware stack.

    :class:`~repro.llm.client.LLMClient` satisfies this protocol directly
    and is the terminal provider of every stack; each middleware in
    :mod:`repro.serving` both consumes and implements it, which is what
    makes the layers composable in any order.
    """

    def complete(self, prompt: str, model: Optional[str] = None) -> "Completion":
        """Answer one prompt, optionally overriding the default model."""
        ...

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List["Completion"]:
        """Answer several prompts sharing one metered prefix."""
        ...

    def embed(self, text: str) -> "np.ndarray":
        """Embed text into the provider's joint vector space."""
        ...


@runtime_checkable
class ReseedableProvider(Protocol):
    """A provider whose error-injection stream can be shifted.

    Deterministic completions make temperature-style resampling impossible;
    the simulator's analogue is a sibling provider with a shifted seed (the
    idiom :func:`repro.core.validation.self_consistency` already uses).
    :class:`~repro.serving.ResilienceMiddleware` relies on this to retry
    a transient failure or re-draw a rejected completion deterministically.
    """

    def reseeded(self, offset: int) -> "CompletionProvider":
        """A sibling provider drawing from a seed shifted by ``offset``."""
        ...


@runtime_checkable
class Submitter(Protocol):
    """The one way to hand a request to the serving tier and get a future.

    Implemented by exactly two classes:
    :class:`~repro.serving.BatchingScheduler` (one stack behind a queue
    and a dispatcher pool) and :class:`~repro.serving.ServingCluster` (sharded,
    multi-tenant). :class:`~repro.serving.AsyncGateway` forwards to either
    through this contract alone, so a front door never needs to know which
    tier it faces. ``tenant=None`` means the default tenant; the
    single-tenant scheduler accepts and ignores the keyword.
    """

    stats: object  # the ServiceStats every layer behind this door writes to

    @property
    def concurrency(self) -> Optional[int]:
        """Forwarded requests the tier starts at once, whichever they are;
        a front door that forwards more only queues them where its own
        ordering no longer applies. None when no such number exists
        because the request decides which worker serves it."""
        ...

    def submit(
        self, prompt: str, model: Optional[str] = None, *, tenant: Optional[str] = None
    ) -> "Future[Completion]":
        """Enqueue one request; raises
        :class:`~repro.errors.SchedulerClosedError` once closed."""
        ...

    def close(self) -> None:
        """Drain accepted requests and stop the worker threads (idempotent)."""
        ...


def make_client(model: str = "gpt-3.5-turbo", seed: int = 0, **kwargs) -> "CompletionProvider":
    """Construct the default terminal provider (a raw ``LLMClient``).

    Exists so modules outside ``llm/`` and ``serving/`` can obtain a
    provider without importing the concrete client class.
    """
    from repro.llm.client import LLMClient

    return LLMClient(model=model, seed=seed, **kwargs)
