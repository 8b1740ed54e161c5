"""Failure handling for the serving stack: retries, breakers, degradation.

The optimizations in :mod:`repro.serving.middleware` all presume the layers
below them answer, and answer well; a real LLM backend is sometimes
rate-limited, slow, or down, and sometimes returns an output a check
rejects. :class:`ResilienceMiddleware` is the one layer that retries. Its
loop has two triggers: a transient failure (modelled as
:class:`~repro.errors.TransientLLMError`, normally injected by
:class:`~repro.llm.faults.FaultInjectingProvider`) and, when
``ResilienceConfig.validator`` is set, a completion the validator rejects
(the output-validation feedback of Section III-E):

* **Capped exponential backoff** — a failed attempt is retried through a
  seed-shifted sibling provider (``inner.reseeded(attempt * seed_step)``),
  so a retry draws a fresh fault uniform exactly like a real re-request
  hits a new scheduler tick. Backoff delays are *simulated*: they are
  added to the returned completion's ``latency_ms`` (together with the
  time each doomed attempt burned) and never sleep the calling thread —
  chaos benchmarks stay deterministic and fast.
* **Validation redraws** — a rejected completion is kept as a candidate
  and redrawn at the next seed offset with no backoff; it counts as a
  breaker success, because the backend answered. If no redraw is
  accepted, the best candidate by confidence is returned. A redrawn
  answer is billed for every completion drawn (usage, cost and latency
  summed in draw order), so the budget and the cache's ``cost_of_miss``
  see the true price. Batches are never validated: a redraw would re-pay
  the whole shared prefix.
* **Retry budget** — at most ``max_attempts`` tries at the requested model
  per request, whichever trigger spends them; when none drew a
  completion the request degrades rather than loops.
* **Per-model circuit breaker** — ``breaker_threshold`` *consecutive*
  exhausted requests open the breaker for that model; while open, the next
  ``breaker_cooldown`` requests short-circuit straight to the fallback
  chain (shedding load from a struggling backend), after which a single
  half-open probe is let through: success closes the breaker, failure
  re-opens it. Cooldown is counted in requests, not wall-clock, keeping
  state transitions replayable. Each model's state sits under its own
  lock, so breakers never serialize traffic across models.
* **Graceful degradation** — when the retry budget is exhausted without
  a completion, or the breaker short-circuits, the request falls back to
  (1) the configured cheaper ``fallback_models`` in order, one attempt
  each; (2) a semantic-cache answer via the read-only
  :meth:`~repro.core.cache.SemanticCache.peek` (either hit tier — a
  near-duplicate answer beats no answer); (3) a typed
  :class:`~repro.errors.ResilienceExhaustedError`.

A request whose first attempt is accepted is returned **untouched** — with
zero injected faults and no validator this layer is bit-identical to not
having it, which ``repro.bench.perf.run_chaos`` verifies. Every recovery
decorates the completion's metadata under ``"serving.resilience"`` and
increments the shared :class:`~repro.serving.stats.ServiceStats` counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.cache import SemanticCache
from repro.errors import ResilienceExhaustedError, TransientLLMError
from repro.llm.client import Completion, Usage
from repro.llm.faults import resolve_model_name
from repro.llm.provider import CompletionProvider
from repro.serving.middleware import Middleware, cached_completion
from repro.serving.stats import ServiceStats

Validator = Callable[[Completion], bool]  # True accepts a completion


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
    # Output check for complete(): a rejected completion is redrawn within
    # the same budget (``min_confidence=t`` is ``lambda c: c.confidence >= t``).
    validator: Optional[Validator] = None

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

    Sits between the cascade and the budget layer (see
    :func:`~repro.serving.stack.build_stack`): close enough to the
    terminal client that each attempt is individually budgeted and
    metered, high enough that the cascade's per-stage requests each get
    their own retry budget, validation and breaker accounting.
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
        validator: Optional[Validator] = None,
    ) -> Tuple[List[object], bool, int, float, Optional[TransientLLMError]]:
        """The retry loop: ``call(provider)`` up to ``attempts`` times.

        Attempt 0 goes to ``inner`` itself, retry ``k`` to
        ``inner.reseeded(k * seed_step)``; an inner that cannot reseed is
        tried twice at most (an identical re-request proves nothing). A
        transient error is counted and followed by a simulated backoff; a
        result ``validator`` rejects is kept and redrawn at once. Counts
        the retries, rejections and breaker transitions. Returns
        ``(drawn, accepted, retries, added_ms, last_error)``: every result
        drawn, in order; whether the last one was accepted; the index of
        the final attempt; and what the failed attempts and their backoffs
        cost."""
        reseedable = hasattr(self.inner, "reseeded")
        drawn: List[object] = []
        accepted = False
        added_ms = 0.0
        last_error: Optional[TransientLLMError] = None
        for attempt in range(attempts):
            provider = self.inner
            if attempt > 0 and reseedable:
                provider = self.inner.reseeded(attempt * self.config.seed_step)
            retrying = attempt + 1 < attempts and (reseedable or attempt == 0)
            try:
                result = call(provider)
            except TransientLLMError as error:
                self._count_error(error)
                last_error = error
                backoff = self.config.backoff_ms(attempt + 1) if retrying else 0.0
                added_ms += error.latency_ms  # two adds, in this order: the
                added_ms += backoff  # float sum complete() has always produced
                with self.stats.lock:
                    self.stats.backoff_ms += error.latency_ms + backoff
                    if retrying:
                        self.stats.resilience_retries += 1
            else:
                drawn.append(result)
                accepted = validator is None or validator(result)
                if accepted:
                    break
                with self.stats.lock:
                    self.stats.validation_rejections += 1
                    if retrying:
                        self.stats.resilience_retries += 1
            if not retrying:
                break
        if drawn:  # the backend answered, whether or not it was accepted
            if breaker.record_success():
                with self.stats.lock:
                    self.stats.breaker_closes += 1
            if accepted and attempt > 0:
                with self.stats.lock:
                    self.stats.resilience_recoveries += 1
        elif breaker.record_failure():
            with self.stats.lock:
                self.stats.breaker_opens += 1
        return drawn, accepted, attempt, added_ms, last_error

    @staticmethod
    def _recovered(
        completion: Completion,
        added_ms: float,
        draws: Sequence[Completion] = (),
        **how: object,
    ) -> Completion:
        """``completion`` marked with ``how`` it was recovered, billed for
        every completion drawn (``draws`` in draw order, by default just
        itself) and charged the ``added_ms`` the failed attempts burned."""
        draws = draws or (completion,)
        metadata = dict(completion.metadata)
        metadata["serving.resilience"] = {**how, "added_ms": round(added_ms, 4)}
        return completion.with_usage(
            Usage(
                prompt_tokens=sum(d.usage.prompt_tokens for d in draws),
                completion_tokens=sum(d.usage.completion_tokens for d in draws),
            ),
            sum(d.cost for d in draws),
            latency_ms=sum(d.latency_ms for d in draws) + added_ms,
            metadata=metadata,
        )

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        return self._complete(prompt, model, self.config.validator)

    def _complete(
        self, prompt: str, model: Optional[str], validator: Optional[Validator]
    ) -> Completion:
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
        drawn, accepted, retries, added_ms, last_error = self._attempt(
            breaker,
            attempts,
            lambda provider: provider.complete(prompt, model=model),
            validator,
        )
        if not drawn:
            return self._degrade(prompt, model_name, added_ms, last_error)
        if retries == 0:
            return drawn[0]  # fault-free fast path: untouched
        best = drawn[-1] if accepted else max(drawn, key=lambda c: c.confidence)
        return self._recovered(best, added_ms, drawn, retries=retries)

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        """Retry a combined batch with the same backoff schedule, but
        **without validation**: a shared-prefix batch is one combined
        request, so redrawing one rejected item would re-pay the whole
        prefix. If the budget runs dry, degrade to per-item requests
        (unvalidated too) so each item gets the full fallback chain
        (losing the shared-prefix refund — the price of answering at all)."""
        breaker = self.breaker_for(resolve_model_name(self.inner, model))
        if breaker.admit() != "shed":
            drawn, _accepted, retries, added_ms, _error = self._attempt(
                breaker,
                self.config.max_attempts,
                lambda provider: provider.complete_batch(shared_prefix, items, model=model),
            )
            if drawn:
                completions = drawn[0]
                if retries == 0:
                    return completions
                share = added_ms / max(len(completions), 1)
                return [self._recovered(c, share, retries=retries) for c in completions]
        else:
            with self.stats.lock:
                self.stats.breaker_short_circuits += 1
        return [self._complete(shared_prefix + item, model, None) for item in items]

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
