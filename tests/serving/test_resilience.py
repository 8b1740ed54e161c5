"""ResilienceMiddleware: backoff, circuit breaker, graceful degradation."""

import pytest

from repro.core.cache import SemanticCache
from repro.errors import (
    ResilienceExhaustedError,
    ServiceUnavailableError,
    TransientLLMError,
)
from repro.llm import FaultInjectingProvider, LLMClient
from repro.serving import (
    BatchingScheduler,
    ResilienceConfig,
    ResilienceMiddleware,
    ServiceStats,
    build_stack,
)

PROMPT = "Question: does the stack survive?"


class ScriptedProvider:
    """Fails the first ``fail_first`` complete() calls with a fixed transient
    error, then answers via a real client. The call counter is shared across
    reseeded siblings, mirroring FaultInjectingProvider's shared tally."""

    def __init__(self, fail_first=0, error_latency_ms=40.0):
        self.inner = LLMClient()
        self.error_latency_ms = error_latency_ms
        self._shared = {"calls": 0, "fail_first": fail_first}

    @property
    def calls(self):
        return self._shared["calls"]

    def complete(self, prompt, model=None):
        self._shared["calls"] += 1
        if self._shared["calls"] <= self._shared["fail_first"]:
            raise ServiceUnavailableError(
                "scripted outage", model=model or "default", latency_ms=self.error_latency_ms
            )
        return self.inner.complete(prompt, model=model)

    def complete_batch(self, shared_prefix, items, model=None):
        self._shared["calls"] += 1
        if self._shared["calls"] <= self._shared["fail_first"]:
            raise ServiceUnavailableError(
                "scripted outage", model=model or "default", latency_ms=self.error_latency_ms
            )
        return self.inner.complete_batch(shared_prefix, items, model=model)

    def embed(self, text):
        return self.inner.embed(text)

    def reseeded(self, offset):
        sibling = ScriptedProvider.__new__(ScriptedProvider)
        sibling.inner = self.inner.reseeded(offset)
        sibling.error_latency_ms = self.error_latency_ms
        sibling._shared = self._shared
        return sibling


class TestConfig:
    def test_backoff_schedule_is_capped(self):
        config = ResilienceConfig(backoff_base_ms=50.0, backoff_factor=2.0, backoff_cap_ms=150.0)
        assert [config.backoff_ms(a) for a in (1, 2, 3, 4)] == [50.0, 100.0, 150.0, 150.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_cooldown=-1)


class TestPassthrough:
    def test_fault_free_completion_is_untouched(self):
        resilient = ResilienceMiddleware(LLMClient())
        assert resilient.complete(PROMPT) == LLMClient().complete(PROMPT)

    def test_fault_free_batch_is_untouched(self):
        resilient = ResilienceMiddleware(LLMClient())
        bare = LLMClient()
        items = ["Question: A?", "Question: B?"]
        assert resilient.complete_batch("P.\n", items) == bare.complete_batch("P.\n", items)


class TestBackoffRecovery:
    def test_recovery_accounts_failed_attempts_and_backoff(self):
        stats = ServiceStats()
        provider = ScriptedProvider(fail_first=2, error_latency_ms=40.0)
        config = ResilienceConfig(max_attempts=4, backoff_base_ms=50.0, backoff_factor=2.0)
        resilient = ResilienceMiddleware(provider, config=config, stats=stats)
        completion = resilient.complete(PROMPT)
        # Two doomed attempts (40 ms each) + backoffs of 50 and 100 ms.
        detail = completion.metadata["serving.resilience"]
        assert detail["retries"] == 2
        assert detail["added_ms"] == pytest.approx(40 + 50 + 40 + 100)
        reference = LLMClient().reseeded(2).complete(PROMPT)
        assert completion.text == reference.text
        assert completion.latency_ms == pytest.approx(reference.latency_ms + detail["added_ms"])
        assert stats.transient_errors == 2
        assert stats.transient_errors_by_kind == {"ServiceUnavailableError": 2}
        assert stats.resilience_retries == 2
        assert stats.resilience_recoveries == 1
        assert stats.backoff_ms == pytest.approx(detail["added_ms"])

    def test_batch_recovery_decorates_every_item(self):
        provider = ScriptedProvider(fail_first=1, error_latency_ms=10.0)
        resilient = ResilienceMiddleware(provider, config=ResilienceConfig(backoff_base_ms=20.0))
        completions = resilient.complete_batch("P.\n", ["Question: A?", "Question: B?"])
        assert len(completions) == 2
        for completion in completions:
            detail = completion.metadata["serving.resilience"]
            assert detail["retries"] == 1
            assert detail["added_ms"] == pytest.approx((10 + 20) / 2)

    def test_snapshot_and_render_carry_the_counters(self):
        stats = ServiceStats()
        resilient = ResilienceMiddleware(
            ScriptedProvider(fail_first=1), config=ResilienceConfig(), stats=stats
        )
        resilient.complete(PROMPT)
        section = stats.snapshot()["resilience"]
        assert section["transient_errors"] == 1
        assert section["recoveries"] == 1
        assert "transient errors" in stats.render()


class TestDegradation:
    def test_falls_back_to_cheaper_model(self):
        stats = ServiceStats()
        flaky = FaultInjectingProvider(LLMClient(), rates={"gpt-4": 1.0}, seed=2)
        resilient = ResilienceMiddleware(
            flaky,
            config=ResilienceConfig(max_attempts=2, fallback_models=("babbage-002",)),
            stats=stats,
        )
        completion = resilient.complete(PROMPT, model="gpt-4")
        assert completion.model == "babbage-002"
        detail = completion.metadata["serving.resilience"]
        assert detail["fallback"] == "model"
        assert detail["degraded_from"] == "gpt-4"
        assert stats.fallback_model_answers == 1

    def test_fallback_equal_to_primary_is_skipped(self):
        flaky = FaultInjectingProvider(LLMClient(), rates={"gpt-4": 1.0}, seed=2)
        resilient = ResilienceMiddleware(
            flaky, config=ResilienceConfig(max_attempts=1, fallback_models=("gpt-4",))
        )
        with pytest.raises(ResilienceExhaustedError):
            resilient.complete(PROMPT, model="gpt-4")

    def test_falls_back_to_cached_answer_read_only(self):
        stats = ServiceStats()
        cache = SemanticCache(reuse_threshold=0.9, augment_threshold=0.75)
        cache.put("does the stack survive?", "yes, via the cache", cost=0.01)
        lookups_before = cache.stats.lookups
        flaky = FaultInjectingProvider(LLMClient(), default_rate=1.0, seed=2)
        resilient = ResilienceMiddleware(
            flaky,
            config=ResilienceConfig(max_attempts=2, fallback_models=()),
            fallback_cache=cache,
            cache_key_fn=lambda prompt: prompt[len("Question: "):],
            stats=stats,
        )
        completion = resilient.complete(PROMPT)
        assert completion.text == "yes, via the cache"
        assert completion.engine == "fallback"
        assert completion.cost == 0.0
        assert completion.metadata["serving.resilience"]["fallback"] == "cache"
        assert stats.fallback_cache_answers == 1
        # peek() must not perturb the cache's own telemetry or clocks.
        assert cache.stats.lookups == lookups_before

    def test_typed_error_when_everything_fails(self):
        stats = ServiceStats()
        flaky = FaultInjectingProvider(LLMClient(), default_rate=1.0, seed=2)
        resilient = ResilienceMiddleware(
            flaky, config=ResilienceConfig(max_attempts=2, fallback_models=()), stats=stats
        )
        with pytest.raises(ResilienceExhaustedError) as excinfo:
            resilient.complete(PROMPT)
        assert isinstance(excinfo.value.__cause__, TransientLLMError)
        assert stats.resilience_exhausted == 1


class TestCircuitBreaker:
    def _middleware(self):
        stats = ServiceStats()
        flaky = FaultInjectingProvider(LLMClient(), rates={"gpt-4": 1.0}, seed=1)
        resilient = ResilienceMiddleware(
            flaky,
            config=ResilienceConfig(
                max_attempts=1,
                breaker_threshold=2,
                breaker_cooldown=2,
                fallback_models=("babbage-002",),
            ),
            stats=stats,
        )
        return resilient, flaky, stats

    def test_open_half_open_close_cycle(self):
        resilient, flaky, stats = self._middleware()
        # Two consecutive exhausted requests open the breaker.
        resilient.complete(PROMPT, model="gpt-4")
        assert resilient.breaker_state("gpt-4") == "closed"
        resilient.complete(PROMPT, model="gpt-4")
        assert resilient.breaker_state("gpt-4") == "open"
        assert stats.breaker_opens == 1
        # Cooldown: two requests shed without touching the model.
        injected_before = flaky.total_injected
        for _ in range(2):
            completion = resilient.complete(PROMPT, model="gpt-4")
            assert completion.model == "babbage-002"
        assert flaky.total_injected == injected_before  # short-circuited
        assert stats.breaker_short_circuits == 2
        # Cooldown over: a half-open probe goes through, fails, re-opens.
        resilient.complete(PROMPT, model="gpt-4")
        assert stats.breaker_probes == 1
        assert stats.breaker_opens == 2
        assert resilient.breaker_state("gpt-4") == "open"
        # Heal the backend; after the next cooldown the probe closes it.
        flaky.rates["gpt-4"] = 0.0
        for _ in range(2):
            resilient.complete(PROMPT, model="gpt-4")
        answered = resilient.complete(PROMPT, model="gpt-4")
        assert answered.model == "gpt-4"
        assert stats.breaker_probes == 2
        assert stats.breaker_closes == 1
        assert resilient.breaker_state("gpt-4") == "closed"
        # Closed again: traffic flows normally.
        assert resilient.complete(PROMPT, model="gpt-4").model == "gpt-4"

    def test_breakers_are_per_model(self):
        resilient, _, _ = self._middleware()
        resilient.complete(PROMPT, model="gpt-4")
        resilient.complete(PROMPT, model="gpt-4")
        assert resilient.breaker_state("gpt-4") == "open"
        assert resilient.breaker_state("babbage-002") == "closed"
        answered = resilient.complete(PROMPT, model="babbage-002")
        assert answered.model == "babbage-002"
        assert "serving.resilience" not in answered.metadata

    def test_probe_success_needs_no_prior_failure_reset(self):
        # A single-threshold breaker: one failure opens, probe closes.
        stats = ServiceStats()
        provider = ScriptedProvider(fail_first=1)
        resilient = ResilienceMiddleware(
            provider,
            config=ResilienceConfig(
                max_attempts=1, breaker_threshold=1, breaker_cooldown=0, fallback_models=()
            ),
            stats=stats,
        )
        with pytest.raises(ResilienceExhaustedError):
            resilient.complete(PROMPT)
        assert resilient.breaker_state("gpt-3.5-turbo") == "open"
        resilient.complete(PROMPT)  # cooldown 0: immediate successful probe
        assert resilient.breaker_state("gpt-3.5-turbo") == "closed"
        assert stats.breaker_closes == 1


class RecordingClient(LLMClient):
    """An LLMClient that remembers the last completion object it returned."""

    def complete(self, prompt, model=None):
        self.last = super().complete(prompt, model=model)
        return self.last


class TestValidationTrigger:
    """A rejected output is the loop's second trigger, beside a transient error."""

    @staticmethod
    def _verdicts(*verdicts):
        remaining = iter(verdicts)
        return lambda completion: next(remaining)

    def test_one_attempt_budget_for_both_triggers(self):
        stats = ServiceStats()
        provider = ScriptedProvider(fail_first=1, error_latency_ms=40.0)
        config = ResilienceConfig(
            max_attempts=3, backoff_base_ms=50.0, validator=self._verdicts(False, True)
        )
        completion = ResilienceMiddleware(provider, config=config, stats=stats).complete(PROMPT)
        # Attempt 0 fails, attempt 1 is drawn and rejected, attempt 2 accepted.
        rejected = LLMClient().reseeded(1).complete(PROMPT)
        accepted = LLMClient().reseeded(2).complete(PROMPT)
        assert provider.calls == 3
        assert completion.text == accepted.text
        assert completion.cost == rejected.cost + accepted.cost
        assert completion.usage.completion_tokens == (
            rejected.usage.completion_tokens + accepted.usage.completion_tokens
        )
        assert completion.latency_ms == (rejected.latency_ms + accepted.latency_ms) + 90.0
        assert completion.metadata["serving.resilience"] == {"retries": 2, "added_ms": 90.0}
        assert (stats.transient_errors, stats.validation_rejections) == (1, 1)
        assert (stats.resilience_retries, stats.resilience_recoveries) == (2, 1)

    def test_budget_spent_returns_the_rejected_draw_not_a_degraded_answer(self):
        stats = ServiceStats()
        provider = ScriptedProvider(fail_first=1, error_latency_ms=40.0)
        config = ResilienceConfig(
            max_attempts=2, backoff_base_ms=50.0, validator=self._verdicts(False)
        )
        completion = ResilienceMiddleware(provider, config=config, stats=stats).complete(PROMPT)
        rejected = LLMClient().reseeded(1).complete(PROMPT)
        assert provider.calls == 2  # no fallback model was asked
        assert (completion.text, completion.model) == (rejected.text, rejected.model)
        assert completion.cost == rejected.cost
        assert completion.latency_ms == rejected.latency_ms + 90.0
        assert completion.metadata["serving.resilience"] == {"retries": 1, "added_ms": 90.0}
        assert stats.fallback_model_answers == 0 and stats.resilience_exhausted == 0
        assert (stats.resilience_retries, stats.resilience_recoveries) == (1, 0)

    def test_rejections_alone_never_open_the_breaker(self):
        stats = ServiceStats()
        flaky = FaultInjectingProvider(LLMClient(), rates={"gpt-4": 0.0}, seed=1)
        resilient = ResilienceMiddleware(
            flaky,
            config=ResilienceConfig(
                max_attempts=2, breaker_threshold=2, validator=lambda completion: False
            ),
            stats=stats,
        )
        for _ in range(5):
            answer = resilient.complete(PROMPT, model="gpt-4")
            assert answer.model == "gpt-4"
            assert "fallback" not in answer.metadata["serving.resilience"]
        assert stats.validation_rejections == 10
        assert resilient.breaker_state("gpt-4") == "closed"
        # A rejected answer is a breaker success: it resets the count of
        # consecutive exhausted requests between two outages.
        flaky.rates["gpt-4"] = 1.0
        resilient.complete(PROMPT, model="gpt-4")
        flaky.rates["gpt-4"] = 0.0
        resilient.complete(PROMPT, model="gpt-4")
        flaky.rates["gpt-4"] = 1.0
        resilient.complete(PROMPT, model="gpt-4")
        assert resilient.breaker_state("gpt-4") == "closed"
        assert stats.breaker_opens == 0

    def test_batch_fallback_items_are_not_validated(self):
        stats = ServiceStats()
        provider = ScriptedProvider(fail_first=2)  # both batch attempts fail
        config = ResilienceConfig(max_attempts=2, validator=lambda completion: False)
        resilient = ResilienceMiddleware(provider, config=config, stats=stats)
        completions = resilient.complete_batch("P.\n", ["Question: A?", "Question: B?"])
        assert [c.text for c in completions] == [
            LLMClient().complete("P.\nQuestion: A?").text,
            LLMClient().complete("P.\nQuestion: B?").text,
        ]
        assert provider.calls == 4  # one per item after the batch: no redraws
        assert stats.validation_rejections == 0

    @pytest.mark.parametrize("validator", [None, lambda completion: True])
    def test_accepted_first_draw_is_the_identical_object(self, validator):
        client = RecordingClient()
        resilient = ResilienceMiddleware(client, config=ResilienceConfig(validator=validator))
        assert resilient.complete(PROMPT) is client.last


class TestStackIntegration:
    def test_build_stack_wires_the_layer(self):
        stack = build_stack(
            FaultInjectingProvider(LLMClient(), default_rate=0.3, seed=4), resilience=True
        )
        assert stack.describe() == "resilience -> metrics -> FaultInjectingProvider"
        for i in range(30):
            stack.complete(f"Question: item {i}?")
        assert stack.stats.transient_errors > 0
        assert stack.stats.resilience_recoveries > 0

    def test_custom_config_accepted(self):
        stack = build_stack(LLMClient(), resilience=ResilienceConfig(max_attempts=2))
        assert stack.provider.config.max_attempts == 2

    def test_concurrent_stack_survives_faults(self):
        flaky = FaultInjectingProvider(LLMClient(), default_rate=0.3, seed=4)
        stack = build_stack(flaky, resilience=True)
        prompts = [f"Question: item {i}?" for i in range(24)]
        with BatchingScheduler(stack, max_batch_size=4, workers=4) as served:
            completions = served.complete_many(prompts)
        assert len(completions) == len(prompts)
        assert all(completion.text for completion in completions)
        assert flaky.total_injected > 0

    def test_resilient_stack_matches_unprotected_at_zero_faults(self):
        plain = build_stack(FaultInjectingProvider(LLMClient(), seed=6))
        guarded = build_stack(FaultInjectingProvider(LLMClient(), seed=6), resilience=True)
        for i in range(8):
            prompt = f"Question: equivalence case {i}?"
            assert guarded.complete(prompt) == plain.complete(prompt)
