"""Per-layer behavior of the serving middleware."""

import pytest

from repro.core.cascade import CascadeClient, ConfidenceDecisionModel
from repro.core.prompts.templates import qa_prompt
from repro.datasets import generate_hotpot
from repro.errors import BudgetExceededError
from repro.llm import LLMClient
from repro.llm.client import default_world
from repro.serving import (
    BudgetMiddleware,
    CascadeMiddleware,
    CompletionProvider,
    MetricsMiddleware,
    ResilienceConfig,
    ResilienceMiddleware,
    SemanticCacheMiddleware,
    ServiceStats,
    last_question_key,
)


@pytest.fixture(scope="module")
def examples():
    return generate_hotpot(default_world(), n=6, seed=41)


def test_llmclient_satisfies_provider_protocol():
    assert isinstance(LLMClient(), CompletionProvider)
    stats = ServiceStats()
    assert isinstance(MetricsMiddleware(LLMClient(), stats=stats), CompletionProvider)
    assert isinstance(SemanticCacheMiddleware(LLMClient(), stats=stats), CompletionProvider)


def test_last_question_key_extracts_trailing_question():
    prompt = qa_prompt("Who directed The Silent Mirror?")
    assert last_question_key(prompt) == "Who directed The Silent Mirror?"
    assert last_question_key("Question: Bare?") == "Bare?"
    assert last_question_key("no question marker") == "no question marker"


class TestSemanticCacheMiddleware:
    def test_repeat_prompt_replays_at_zero_cost(self, examples):
        client = LLMClient()
        stats = ServiceStats()
        cached = SemanticCacheMiddleware(client, key_fn=last_question_key, stats=stats)
        prompt = qa_prompt(examples[0].question)
        first = cached.complete(prompt)
        cost_after_first = client.meter.cost
        second = cached.complete(prompt)
        assert second.text == first.text
        assert second.cost == 0.0 and second.usage.total_tokens == 0
        assert second.metadata["serving.cache"]["tier"] == "reuse"
        assert client.meter.cost == cost_after_first  # no LLM traffic on the hit
        assert stats.cache_lookups == 2
        assert stats.cache_reuse_hits == 1
        assert stats.cache_misses == 1
        assert stats.cache_cost_saved > 0.0

    def test_replayed_completion_preserves_model_and_engine(self, examples):
        cached = SemanticCacheMiddleware(LLMClient(), key_fn=last_question_key)
        prompt = qa_prompt(examples[1].question)
        first = cached.complete(prompt)
        second = cached.complete(prompt)
        assert (second.model, second.engine, second.confidence) == (
            first.model,
            first.engine,
            first.confidence,
        )

    def test_batches_bypass_the_cache(self):
        stats = ServiceStats()
        cached = SemanticCacheMiddleware(LLMClient(), stats=stats)
        cached.complete_batch("Shared prefix.\n", ["Question: A?", "Question: B?"])
        assert stats.cache_lookups == 0

    def test_lookup_latency_counters_populated(self, examples):
        stats = ServiceStats()
        cached = SemanticCacheMiddleware(LLMClient(), key_fn=last_question_key, stats=stats)
        prompt = qa_prompt(examples[0].question)
        cached.complete(prompt)  # miss -> put
        cached.complete(prompt)  # reuse hit -> no put
        assert stats.cache_lookup_ms > 0.0
        assert stats.cache_put_ms > 0.0
        assert stats.cache_mean_lookup_ms == pytest.approx(stats.cache_lookup_ms / 2)
        snapshot = stats.snapshot()["cache"]
        assert snapshot["lookup_ms"] >= 0.0
        assert snapshot["mean_lookup_ms"] >= 0.0
        assert snapshot["put_ms"] >= 0.0
        report = stats.render()
        assert "lookup time (ms)" in report


class TestCascadeMiddleware:
    def test_matches_cascade_client_decisions_and_cost(self, examples):
        chain = ("babbage-002", "gpt-3.5-turbo", "gpt-4")
        decisions = [ConfidenceDecisionModel(0.55), ConfidenceDecisionModel(0.52)]
        stats = ServiceStats()
        middleware = CascadeMiddleware(
            LLMClient(), chain=chain, decision_models=decisions, stats=stats
        )
        reference = CascadeClient(
            LLMClient(),
            chain=chain,
            decision_models=[ConfidenceDecisionModel(0.55), ConfidenceDecisionModel(0.52)],
        )
        expected_escalations = 0
        for ex in examples:
            via_stack = middleware.complete(qa_prompt(ex.question))
            via_client = reference.complete(qa_prompt(ex.question))
            assert via_stack.text == via_client.final.text
            assert via_stack.model == via_client.model
            assert via_stack.cost == pytest.approx(via_client.cost)
            assert via_stack.metadata["serving.cascade"]["escalations"] == via_client.escalations
            expected_escalations += via_client.escalations
        assert stats.cascade_requests == len(examples)
        assert stats.escalations == expected_escalations
        assert sum(stats.answered_by.values()) == len(examples)

    def test_explicit_model_bypasses_routing(self, examples):
        stats = ServiceStats()
        middleware = CascadeMiddleware(LLMClient(), stats=stats)
        direct = middleware.complete(qa_prompt(examples[0].question), model="gpt-4")
        assert direct.model == "gpt-4"
        assert stats.cascade_requests == 0


def redrawing(inner, max_attempts, validator, stats=None):
    """The resilience layer with only its validation trigger exercised."""
    config = ResilienceConfig(max_attempts=max_attempts, validator=validator)
    return ResilienceMiddleware(inner, config=config, stats=stats)


def confident(threshold):
    return lambda completion: completion.confidence >= threshold


class TestRetryMiddleware:
    """Validator redraws: a rejected completion is one of the two triggers
    of :class:`ResilienceMiddleware`'s retry loop."""

    def test_unreachable_threshold_exhausts_retries(self, examples):
        stats = ServiceStats()
        retry = redrawing(
            LLMClient(model="babbage-002"),
            max_attempts=3,
            validator=confident(1.01),  # unattainable: every draw is rejected
            stats=stats,
        )
        completion = retry.complete(qa_prompt(examples[0].question))
        assert completion.metadata["serving.resilience"]["retries"] == 2
        assert stats.resilience_retries == 2
        assert stats.validation_rejections == 3
        assert stats.resilience_recoveries == 0

    def test_redraws_are_deterministic_seed_shifts(self, examples):
        prompt = qa_prompt(examples[2].question)
        client = LLMClient(model="babbage-002", seed=0)
        retry = redrawing(client, max_attempts=2, validator=confident(1.01))
        best = retry.complete(prompt)
        first = LLMClient(model="babbage-002", seed=0).complete(prompt)
        redraw = LLMClient(model="babbage-002", seed=1).complete(prompt)
        expected = redraw if redraw.confidence > first.confidence else first
        assert best.text == expected.text
        assert best.confidence == expected.confidence

    def test_validator_rescue_counts_once(self, examples):
        seen = []

        def reject_first(completion):
            seen.append(completion.text)
            return len(seen) > 1

        stats = ServiceStats()
        retry = redrawing(LLMClient(), max_attempts=4, validator=reject_first, stats=stats)
        completion = retry.complete(qa_prompt(examples[3].question))
        assert completion.metadata["serving.resilience"]["retries"] == 1
        assert stats.resilience_retries == 1
        assert stats.validation_rejections == 1
        assert stats.resilience_recoveries == 1

    def test_accepted_first_draw_skips_retries(self, examples):
        stats = ServiceStats()
        retry = redrawing(
            LLMClient(model="gpt-4"), max_attempts=4, validator=confident(0.0), stats=stats
        )
        retry.complete(qa_prompt(examples[4].question))
        assert stats.resilience_retries == 0
        assert stats.validation_rejections == 0

    def test_usage_and_cost_aggregate_over_all_attempts(self, examples):
        # Regression: the redraw loop used to return only the best draw's
        # usage/cost, hiding the redraw price from budget/metrics above it.
        prompt = qa_prompt(examples[5].question)
        retry = redrawing(
            LLMClient(model="babbage-002", seed=0), max_attempts=3, validator=confident(1.01)
        )
        best = retry.complete(prompt)
        draws = [
            LLMClient(model="babbage-002", seed=offset).complete(prompt)
            for offset in (0, 1, 2)
        ]
        # Summed in draw order, so the totals are exact, not approximate.
        assert best.cost == sum(d.cost for d in draws)
        assert best.usage.prompt_tokens == sum(d.usage.prompt_tokens for d in draws)
        assert best.usage.completion_tokens == sum(d.usage.completion_tokens for d in draws)
        assert best.latency_ms == sum(d.latency_ms for d in draws)
        # The *content* is still the single best draw's.
        winner = max(draws, key=lambda d: d.confidence)
        assert (best.text, best.confidence) == (winner.text, winner.confidence)

    def test_single_accepted_draw_charges_exactly_once(self, examples):
        prompt = qa_prompt(examples[0].question)
        retry = redrawing(LLMClient(), max_attempts=4, validator=confident(0.0))
        assert retry.complete(prompt) == LLMClient().complete(prompt)

    def test_batches_bypass_validation_and_redraws(self):
        # Pins the documented contract: complete_batch never validates, so
        # a reject-everything validator must not trigger a single redraw.
        stats = ServiceStats()
        client = LLMClient()
        retry = redrawing(
            client, max_attempts=4, validator=lambda completion: False, stats=stats
        )
        items = ["Question: A?", "Question: B?"]
        via_retry = retry.complete_batch("Shared prefix.\n", items)
        direct = LLMClient().complete_batch("Shared prefix.\n", items)
        assert via_retry == direct
        assert stats.resilience_retries == 0
        assert stats.validation_rejections == 0
        assert client.meter.calls == len(items)  # no redraw traffic
        assert "without validation" in ResilienceMiddleware.complete_batch.__doc__


class TestBudgetMiddleware:
    def test_ceiling_enforced_between_calls(self, examples):
        stats = ServiceStats()
        budget = BudgetMiddleware(LLMClient(), budget_usd=1e-9, stats=stats)
        budget.complete(qa_prompt(examples[0].question))  # spent == 0 at check time
        with pytest.raises(BudgetExceededError):
            budget.complete(qa_prompt(examples[1].question))
        assert stats.budget_rejections == 1
        assert stats.budget_spent_usd == pytest.approx(budget.spent_usd)
        assert budget.remaining() == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetMiddleware(LLMClient(), budget_usd=-1.0)

    def test_reseeded_clones_share_one_ledger(self, examples):
        # Regression: reseeded siblings (how the resilience layer redraws) used
        # to carry a copied spend float, so redraw charges escaped the
        # original's ceiling.
        stats = ServiceStats()
        budget = BudgetMiddleware(LLMClient(), budget_usd=5.0, stats=stats)
        sibling = budget.reseeded(1)
        sibling.complete(qa_prompt(examples[1].question))
        assert budget.spent_usd == pytest.approx(sibling.spent_usd)
        assert budget.spent_usd > 0.0


class TestMetricsMiddleware:
    def test_counters_match_client_meter(self, examples):
        client = LLMClient()
        stats = ServiceStats()
        metrics = MetricsMiddleware(client, stats=stats)
        for ex in examples[:3]:
            metrics.complete(qa_prompt(ex.question))
        metrics.complete_batch("Shared prefix.\n", ["Question: A?", "Question: B?"])
        assert stats.llm_calls == client.meter.calls == 5
        assert stats.completion_tokens == client.meter.completion_tokens
        assert stats.cost_usd == pytest.approx(client.meter.cost)
        assert set(stats.per_model) == set(client.meter.per_model)
