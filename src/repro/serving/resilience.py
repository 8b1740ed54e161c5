"""Failure handling for the serving stack: retries, breakers, degradation.

The optimizations in :mod:`repro.serving.middleware` all presume the layers
below them answer; a real LLM backend is sometimes rate-limited, slow, or
down. :class:`ResilienceMiddleware` is the layer that absorbs those
failures (modelled as :class:`~repro.errors.TransientLLMError`, normally
injected by :class:`~repro.llm.faults.FaultInjectingProvider`):

* **Capped exponential backoff** — a failed attempt is retried through a
  seed-shifted sibling provider (``inner.reseeded(attempt * seed_step)``),
  so a retry draws a fresh fault uniform exactly like a real re-request
  hits a new scheduler tick. Backoff delays are *simulated*: they are
  added to the returned completion's ``latency_ms`` (together with the
  time each doomed attempt burned) and never sleep the calling thread —
  chaos benchmarks stay deterministic and fast.
* **Retry budget** — at most ``max_attempts`` tries at the requested model
  per request; after that the request degrades rather than loops.
* **Per-model circuit breaker** — ``breaker_threshold`` *consecutive*
  exhausted requests open the breaker for that model; while open, the next
  ``breaker_cooldown`` requests short-circuit straight to the fallback
  chain (shedding load from a struggling backend), after which a single
  half-open probe is let through: success closes the breaker, failure
  re-opens it. Cooldown is counted in requests, not wall-clock, keeping
  state transitions replayable. Each model's state sits under its own
  lock, so breakers never serialize traffic across models.
* **Graceful degradation** — when the retry budget is exhausted or the
  breaker short-circuits, the request falls back to (1) the configured
  cheaper ``fallback_models`` in order, one attempt each; (2) a
  semantic-cache answer via the read-only
  :meth:`~repro.core.cache.SemanticCache.peek` (either hit tier —
  a near-duplicate answer beats no answer); (3) a typed
  :class:`~repro.errors.ResilienceExhaustedError`.

A request whose first attempt succeeds is returned **untouched** — with
zero injected faults this layer is bit-identical to not having it, which
``repro.bench.perf.run_chaos`` verifies. Every recovery decorates the
completion's metadata under ``"serving.resilience"`` and increments the
shared :class:`~repro.serving.stats.ServiceStats` counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.cache import SemanticCache
from repro.errors import ResilienceExhaustedError, TransientLLMError
from repro.llm.client import Completion
from repro.llm.faults import resolve_model_name
from repro.llm.provider import CompletionProvider
from repro.serving.middleware import Middleware, cached_completion
from repro.serving.stats import ServiceStats


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for :class:`ResilienceMiddleware` (defaults suit the chaos
    bench: 4 attempts ride out 15% fault rates with ~0.05% residual)."""

    max_attempts: int = 4  # total tries at the requested model
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 1000.0
    seed_step: int = 1  # reseed offset per retry attempt
    breaker_threshold: int = 5  # consecutive exhausted requests to open
    breaker_cooldown: int = 8  # short-circuited requests before a probe
    fallback_models: Sequence[str] = ("babbage-002",)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_ms < 0 or self.backoff_cap_ms < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")

    def backoff_ms(self, attempt: int) -> float:
        """Simulated delay before retry ``attempt`` (1-based), capped."""
        return min(
            self.backoff_cap_ms, self.backoff_base_ms * self.backoff_factor ** (attempt - 1)
        )


class _Breaker:
    """Circuit-breaker state for one model, under its own lock.

    States: ``closed`` (normal traffic), ``open`` (shedding: requests
    short-circuit while the cooldown counts down, then one probe is let
    through), back to ``closed`` on probe success. ``admit()`` decides and
    mutates in one critical section so concurrent callers see a consistent
    transition order.
    """

    def __init__(self, threshold: int, cooldown: int) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.consecutive_failures = 0
        self.cooldown_remaining = 0
        self.probe_in_flight = False
        self.lock = threading.Lock()

    def admit(self) -> str:
        """Gate one request: ``"allow"`` (normal), ``"probe"`` (half-open
        trial), or ``"shed"`` (short-circuit to the fallback chain)."""
        with self.lock:
            if self.state == "closed":
                return "allow"
            if self.probe_in_flight:
                return "shed"
            if self.cooldown_remaining > 0:
                self.cooldown_remaining -= 1
                return "shed"
            self.probe_in_flight = True
            return "probe"

    def record_success(self) -> bool:
        """Note a request that got an answer; returns True on a
        half-open probe success (the open→closed transition)."""
        with self.lock:
            self.consecutive_failures = 0
            if self.state == "open":
                self.state = "closed"
                self.probe_in_flight = False
                return True
            return False

    def record_failure(self) -> bool:
        """Note an exhausted request; returns True when this failure
        opens (or re-opens) the breaker."""
        with self.lock:
            self.consecutive_failures += 1
            if self.state == "open":  # failed half-open probe: re-open
                self.probe_in_flight = False
                self.cooldown_remaining = self.cooldown
                return True
            if self.consecutive_failures >= self.threshold:
                self.state = "open"
                self.cooldown_remaining = self.cooldown
                return True
            return False


class ResilienceMiddleware(Middleware):
    """Catch transient errors from the layers below and recover.

    Sits between the retry/validation layer and the budget layer (see
    :func:`~repro.serving.stack.build_stack`): close enough to the
    terminal client that each recovery attempt is individually budgeted
    and metered, high enough that the cascade's per-stage requests each
    get their own retry budget and breaker accounting.
    """

    def __init__(
        self,
        inner: CompletionProvider,
        config: Optional[ResilienceConfig] = None,
        fallback_cache: Optional[SemanticCache] = None,
        cache_key_fn: Optional[Callable[[str], str]] = None,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        super().__init__(inner, stats)
        self.config = config if config is not None else ResilienceConfig()
        self.fallback_cache = fallback_cache
        self.cache_key_fn = cache_key_fn
        self._breakers: dict = {}
        self._breakers_lock = threading.Lock()

    # ------------------------------------------------------------ breakers

    def breaker_for(self, model: str) -> _Breaker:
        with self._breakers_lock:
            breaker = self._breakers.get(model)
            if breaker is None:
                breaker = _Breaker(
                    self.config.breaker_threshold, self.config.breaker_cooldown
                )
                self._breakers[model] = breaker
            return breaker

    def breaker_state(self, model: str) -> str:
        """The breaker state for ``model`` (``closed``/``open``)."""
        return self.breaker_for(model).state

    # ------------------------------------------------------------ accounting

    def _count_error(self, error: TransientLLMError) -> None:
        kind = type(error).__name__
        with self.stats.lock:
            self.stats.transient_errors += 1
            self.stats.transient_errors_by_kind[kind] = (
                self.stats.transient_errors_by_kind.get(kind, 0) + 1
            )

    # ------------------------------------------------------------ completion

    def _attempt(
        self,
        breaker: _Breaker,
        attempts: int,
        call: Callable[[CompletionProvider], object],
    ) -> Tuple[object, int, float, Optional[TransientLLMError]]:
        """The retry loop: ``call(provider)`` up to ``attempts`` times.

        Attempt 0 goes to ``inner`` itself, retry ``k`` to
        ``inner.reseeded(k * seed_step)``. Counts every transient error,
        the simulated backoff between attempts, and the breaker
        transitions. Returns ``(result, retries, added_ms, None)`` on
        success or ``(None, attempts, added_ms, last_error)`` once the
        budget is exhausted; ``added_ms`` is what the doomed attempts and
        their backoffs cost."""
        added_ms = 0.0
        last_error: Optional[TransientLLMError] = None
        for attempt in range(attempts):
            provider = self.inner
            if attempt > 0 and hasattr(self.inner, "reseeded"):
                provider = self.inner.reseeded(attempt * self.config.seed_step)
            try:
                result = call(provider)
            except TransientLLMError as error:
                self._count_error(error)
                last_error = error
                retrying = attempt + 1 < attempts
                backoff = self.config.backoff_ms(attempt + 1) if retrying else 0.0
                added_ms += error.latency_ms  # two adds, in this order: the
                added_ms += backoff  # float sum complete() has always produced
                with self.stats.lock:
                    self.stats.backoff_ms += error.latency_ms + backoff
                    if retrying:
                        self.stats.resilience_retries += 1
                if attempt > 0 and not hasattr(self.inner, "reseeded"):
                    break  # an identical re-request can only fail again
                continue
            if breaker.record_success():
                with self.stats.lock:
                    self.stats.breaker_closes += 1
            if attempt > 0:
                with self.stats.lock:
                    self.stats.resilience_recoveries += 1
            return result, attempt, added_ms, None
        if breaker.record_failure():
            with self.stats.lock:
                self.stats.breaker_opens += 1
        return None, attempts, added_ms, last_error

    @staticmethod
    def _recovered(completion: Completion, added_ms: float, **how: object) -> Completion:
        """``completion`` marked with ``how`` it was recovered and charged
        the ``added_ms`` the failed attempts before it burned."""
        metadata = dict(completion.metadata)
        metadata["serving.resilience"] = {**how, "added_ms": round(added_ms, 4)}
        return completion.with_usage(
            completion.usage,
            completion.cost,
            latency_ms=completion.latency_ms + added_ms,
            metadata=metadata,
        )

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        model_name = resolve_model_name(self.inner, model)
        breaker = self.breaker_for(model_name)
        admission = breaker.admit()
        if admission == "shed":
            with self.stats.lock:
                self.stats.breaker_short_circuits += 1
            return self._degrade(prompt, model_name, 0.0, None)
        if admission == "probe":
            with self.stats.lock:
                self.stats.breaker_probes += 1
        # A probe gets a single attempt: one request must not re-hammer a
        # backend the breaker just finished shedding load from.
        attempts = 1 if admission == "probe" else self.config.max_attempts
        completion, retries, added_ms, last_error = self._attempt(
            breaker, attempts, lambda provider: provider.complete(prompt, model=model)
        )
        if completion is None:
            return self._degrade(prompt, model_name, added_ms, last_error)
        if retries == 0:
            return completion  # fault-free fast path: untouched
        return self._recovered(completion, added_ms, retries=retries)

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        """Retry a combined batch with the same backoff schedule; if the
        budget runs dry, degrade to per-item :meth:`complete` calls so
        each item gets the full fallback chain (losing the shared-prefix
        refund — the price of answering at all)."""
        breaker = self.breaker_for(resolve_model_name(self.inner, model))
        if breaker.admit() != "shed":
            completions, retries, added_ms, _error = self._attempt(
                breaker,
                self.config.max_attempts,
                lambda provider: provider.complete_batch(shared_prefix, items, model=model),
            )
            if completions is not None:
                if retries == 0:
                    return completions
                share = added_ms / max(len(completions), 1)
                return [self._recovered(c, share, retries=retries) for c in completions]
        else:
            with self.stats.lock:
                self.stats.breaker_short_circuits += 1
        return [self.complete(shared_prefix + item, model=model) for item in items]

    # ------------------------------------------------------------ degradation

    def degrade(self, prompt: str, model: Optional[str] = None) -> Completion:
        """Serve a degraded answer without touching the primary model.

        Public entry into the fallback chain — cheaper fallback models,
        then a read-only cache peek, then a typed
        :class:`~repro.errors.ResilienceExhaustedError`. The async gateway
        calls this for requests whose deadline expired while they sat in
        an admission queue: a cheap partial answer now instead of a full
        answer that would arrive too late (or a bare timeout).
        """
        model_name = resolve_model_name(self.inner, model)
        return self._degrade(prompt, model_name, 0.0, None)

    def _degrade(
        self,
        prompt: str,
        model_name: str,
        added_ms: float,
        last_error: Optional[TransientLLMError],
    ) -> Completion:
        """The fallback chain: cheaper models, cached answer, typed error."""
        for fallback in self.config.fallback_models:
            if fallback == model_name:
                continue
            try:
                completion = self.inner.complete(prompt, model=fallback)
            except TransientLLMError as error:
                self._count_error(error)
                added_ms += error.latency_ms
                with self.stats.lock:
                    self.stats.backoff_ms += error.latency_ms
                last_error = error
                continue
            with self.stats.lock:
                self.stats.fallback_model_answers += 1
            return self._recovered(
                completion, added_ms, fallback="model", degraded_from=model_name
            )
        if self.fallback_cache is not None:
            key = self.cache_key_fn(prompt) if self.cache_key_fn is not None else prompt
            hit = self.fallback_cache.peek(key)
            if hit.entry is not None:
                with self.stats.lock:
                    self.stats.fallback_cache_answers += 1
                return cached_completion(
                    hit.entry.response,
                    {
                        "serving.resilience": {
                            "fallback": "cache",
                            "tier": hit.tier,
                            "degraded_from": model_name,
                            "added_ms": round(added_ms, 4),
                        }
                    },
                    latency_ms=added_ms,
                    confidence=round(hit.similarity, 6),
                    engine="fallback",
                )
        with self.stats.lock:
            self.stats.resilience_exhausted += 1
        raise ResilienceExhaustedError(
            f"model {model_name}: retries, fallback models and the cache all "
            f"failed to produce an answer"
        ) from last_error
