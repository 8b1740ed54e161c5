"""End-to-end behavior of composed stacks and the ServiceStats snapshot."""

import sys

import pytest

from repro.core.cache import SemanticCache
from repro.core.cascade import ConfidenceDecisionModel
from repro.core.prompts.templates import qa_prompt
from repro.datasets import generate_hotpot
from repro.datasets.hotpot import paraphrase
from repro.errors import ResilienceExhaustedError
from repro.llm import LLMClient
from repro.llm.client import default_world
from repro.llm.faults import FaultInjectingProvider
from repro.serving import (
    BatchingScheduler,
    CompletionProvider,
    ResilienceConfig,
    ServiceStats,
    ServingStack,
    build_stack,
    last_question_key,
)


@pytest.fixture(scope="module")
def examples():
    return generate_hotpot(default_world(), n=6, seed=17)


class TestBareStack:
    def test_no_middleware_is_bit_identical_to_client(self, examples):
        stack = build_stack(LLMClient())
        bare = LLMClient()
        for ex in examples:
            via_stack = stack.complete(qa_prompt(ex.question))
            direct = bare.complete(qa_prompt(ex.question))
            assert via_stack == direct  # frozen dataclass: full field equality
        assert stack.describe() == "metrics -> LLMClient"

    def test_stack_is_a_provider(self):
        stack = build_stack(LLMClient())
        assert isinstance(stack, CompletionProvider)
        assert isinstance(stack, ServingStack)

    def test_batch_and_embed_pass_through(self, examples):
        stack = build_stack(LLMClient())
        bare = LLMClient()
        stacked = stack.complete_batch("Prefix.\n", ["Question: A?", "Question: B?"])
        direct = bare.complete_batch("Prefix.\n", ["Question: A?", "Question: B?"])
        assert [c.text for c in stacked] == [c.text for c in direct]
        assert stack.stats.llm_calls == 2
        assert (stack.embed("concert hall") == bare.embed("concert hall")).all()


class TestComposedStack:
    def _full_stack(self, client):
        return build_stack(
            client,
            cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
            cache_key_fn=last_question_key,
            chain=("babbage-002", "gpt-3.5-turbo", "gpt-4"),
            decision_models=[ConfidenceDecisionModel(0.55), ConfidenceDecisionModel(0.52)],
            budget_usd=5.0,
        )

    def test_layer_order_outermost_first(self):
        stack = self._full_stack(LLMClient())
        assert stack.describe() == "cache -> cascade -> budget -> metrics -> LLMClient"

    def test_repeated_traffic_records_hits_and_escalations(self, examples):
        client = LLMClient()
        stack = self._full_stack(client)
        stream = [ex.question for ex in examples] + [
            paraphrase(ex.question) for ex in examples
        ]
        for question in stream:
            stack.complete(qa_prompt(question))
        assert stack.stats.cache_lookups == len(stream)
        assert stack.stats.cache_reuse_hits > 0
        assert stack.stats.escalations > 0
        assert stack.stats.llm_calls == client.meter.calls
        assert stack.stats.cost_usd == pytest.approx(client.meter.cost)
        # Cache hits never reach the metrics layer.
        assert stack.stats.llm_calls < 3 * len(stream)

    def test_stats_snapshot_and_render(self, examples):
        stack = self._full_stack(LLMClient())
        for ex in examples[:3]:
            stack.complete(qa_prompt(ex.question))
        snapshot = stack.stats.snapshot()
        assert set(snapshot) == {
            "llm",
            "latency",
            "cache",
            "cascade",
            "budget",
            "resilience",
            "scheduler",
            "gateway",
        }
        assert snapshot["llm"]["calls"] == stack.stats.llm_calls
        assert snapshot["latency"]["count"] == stack.stats.llm_calls
        assert snapshot["cache"]["lookups"] == 3
        report = stack.report()
        assert "Serving stack stats" in report
        assert "cache" in report and "cascade" in report

    def test_shared_stats_instance(self):
        stats = ServiceStats()
        stack = build_stack(LLMClient(), cache=True, stats=stats)
        assert stack.stats is stats

    def test_cache_true_installs_default_cache(self):
        stack = build_stack(LLMClient(), cache=True)
        assert stack.describe() == "cache -> metrics -> LLMClient"

    def test_retries_with_criterion_accepted(self):
        config = ResilienceConfig(max_attempts=4, validator=lambda c: c.confidence >= 0.5)
        stack = build_stack(LLMClient(), resilience=config)
        assert stack.describe() == "resilience -> metrics -> LLMClient"
        assert stack.provider.config.validator is config.validator

    def test_resilience_layer_position(self):
        stack = build_stack(
            LLMClient(),
            cache=True,
            chain=("babbage-002", "gpt-4"),
            budget_usd=5.0,
            resilience=ResilienceConfig(validator=lambda c: c.confidence >= 0.0),
        )
        assert stack.describe() == (
            "cache -> cascade -> resilience -> budget -> metrics -> LLMClient"
        )

    def test_resilience_fallback_shares_the_stack_cache(self):
        cache = SemanticCache()
        stack = build_stack(LLMClient(), cache=cache, resilience=True)
        resilience = stack.provider.inner  # cache -> resilience -> ...
        assert resilience.fallback_cache is cache


class TestAppsIntegration:
    def test_apps_accept_a_stack_anywhere_a_client_goes(self, examples):
        # The refactor's point: applications are provider-generic, so a
        # composed stack drops in wherever a raw LLMClient went.
        from repro.apps.integrate.entity_resolution import EntityResolver

        client = LLMClient()
        stack = build_stack(client, cache=True)
        resolver = EntityResolver(stack)
        verdict_a = resolver.resolve("Apple Inc. (Cupertino)", "Apple Incorporated, Cupertino")
        resolver_again = EntityResolver(build_stack(LLMClient(), cache=True))
        verdict_b = resolver_again.resolve("Apple Inc. (Cupertino)", "Apple Incorporated, Cupertino")
        assert verdict_a == verdict_b
        assert stack.stats.llm_calls >= 1


def test_budget_spend_is_the_billed_cost_under_faults_and_redraws():
    # No budget leakage: the spend the ceiling is checked against, what the
    # metrics layer saw billed and what the client metered are one number,
    # through transient-fault retries and validation redraws on reseeded
    # clones, from four dispatcher threads.
    client = LLMClient()
    stack = build_stack(
        FaultInjectingProvider(client, default_rate=0.15, seed=3),
        resilience=ResilienceConfig(max_attempts=3, validator=lambda c: c.confidence >= 0.9),
        budget_usd=50.0,
        chain=("babbage-002", "gpt-3.5-turbo", "gpt-4"),
    )
    prompts = [f"Question: which film did director number {i} make?" for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force thread switches inside the charge
    try:
        with BatchingScheduler(stack, workers=4) as scheduler:
            futures = [scheduler.submit(prompt) for prompt in prompts]
            failed = [future.exception(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # A request whose every recovery failed ends in the typed error; what
    # its attempts were billed is still charged.
    assert all(exc is None or isinstance(exc, ResilienceExhaustedError) for exc in failed)
    stats = stack.stats
    assert stats.resilience_retries > 0 and stats.validation_rejections > 0
    assert abs(stats.budget_spent_usd - stats.cost_usd) <= 1e-9
    assert abs(stats.budget_spent_usd - client.meter.cost) <= 1e-9
