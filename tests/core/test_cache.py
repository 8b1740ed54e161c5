"""Semantic cache tests: tiers, thresholds, eviction policies."""

import pytest

from repro.core.cache import (
    AUGMENT_WEIGHT,
    REUSE_WEIGHT,
    EvictionPolicy,
    SemanticCache,
)
from repro.llm import LLMClient
from repro.serving import build_stack, last_question_key


class TestLookupTiers:
    def test_exact_hit(self):
        cache = SemanticCache()
        cache.put("who directed the silent mirror", "Gusio", cost=0.1)
        lookup = cache.lookup("who directed the silent mirror")
        assert lookup.tier == "reuse"
        assert lookup.entry.response == "Gusio"
        assert lookup.similarity == pytest.approx(1.0)

    def test_semantic_hit_on_paraphrase(self):
        cache = SemanticCache(reuse_threshold=0.80)
        cache.put("Who was born earlier, Ada Lovelace or Bob Noyce?", "Ada", cost=0.1)
        lookup = cache.lookup("Between Ada Lovelace and Bob Noyce, who was born earlier?")
        assert lookup.tier == "reuse"

    def test_miss_on_unrelated(self):
        cache = SemanticCache()
        cache.put("stadium concerts in 2014", "answer")
        assert cache.lookup("differential privacy for federated learning").tier == "miss"

    def test_augment_tier_between_thresholds(self):
        cache = SemanticCache(reuse_threshold=0.999, augment_threshold=0.5)
        cache.put("Who was born earlier, Ada Lovelace or Bob Noyce?", "Ada")
        lookup = cache.lookup("Who was born earlier, Ada Lovelace or Carl Noyce?")
        assert lookup.tier == "augment"

    def test_empty_cache_misses(self):
        assert SemanticCache().lookup("anything").tier == "miss"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SemanticCache(reuse_threshold=0.5, augment_threshold=0.9)
        with pytest.raises(ValueError):
            SemanticCache(capacity=0)


class TestStats:
    def test_hit_and_miss_counts(self):
        cache = SemanticCache()
        cache.put("q1", "a1", cost=0.25)
        cache.lookup("q1")
        cache.lookup("totally different thing")
        assert cache.stats.reuse_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_cost_saved_accumulates(self):
        cache = SemanticCache()
        cache.put("q1", "a1", cost=0.25)
        cache.lookup("q1")
        cache.lookup("q1")
        assert cache.stats.cost_saved == pytest.approx(0.5)


class TestEviction:
    def _fill(self, cache, n, prefix="query"):
        for i in range(n):
            cache.put(f"{prefix} number {i} about topic {i}", f"answer {i}")

    def test_capacity_respected(self):
        cache = SemanticCache(capacity=5)
        self._fill(cache, 10)
        assert len(cache) == 5
        assert cache.stats.evictions == 5

    def test_lru_evicts_oldest(self):
        cache = SemanticCache(capacity=2, policy=EvictionPolicy.LRU)
        cache.put("alpha alpha", "1")
        cache.put("beta beta", "2")
        cache.lookup("alpha alpha")  # refresh alpha
        cache.put("gamma gamma", "3")
        assert "alpha alpha" in cache
        assert "beta beta" not in cache

    def test_lfu_evicts_least_frequent(self):
        cache = SemanticCache(capacity=2, policy=EvictionPolicy.LFU)
        cache.put("alpha alpha", "1")
        cache.put("beta beta", "2")
        for _i in range(3):
            cache.lookup("alpha alpha")
        cache.put("gamma gamma", "3")
        assert "alpha alpha" in cache
        assert "beta beta" not in cache

    def test_weighted_prefers_reuse_hits(self):
        cache = SemanticCache(
            capacity=2, policy=EvictionPolicy.WEIGHTED, reuse_threshold=0.99, augment_threshold=0.6
        )
        cache.put("alpha alpha alpha", "1")
        cache.put("beta beta beta", "2")
        # alpha gets a reuse hit (weight 3); beta gets an augment hit (weight 1).
        cache.lookup("alpha alpha alpha")
        cache.lookup("beta beta beta extra words attached")
        cache.put("gamma gamma gamma", "3")
        assert "alpha alpha alpha" in cache
        assert "beta beta beta" not in cache

    def test_weight_constants_ordering(self):
        assert REUSE_WEIGHT > AUGMENT_WEIGHT

    def test_put_refreshes_existing(self):
        cache = SemanticCache(capacity=2)
        cache.put("q", "old")
        cache.put("q", "new")
        assert len(cache) == 1
        assert cache.lookup("q").entry.response == "new"


class TestCacheInFrontOfClient:
    """The cache-aside behaviours, on the one surviving implementation:
    ``build_stack(client, cache=...)``."""

    def test_second_call_hits_cache(self):
        client = LLMClient(model="gpt-4")
        cached = build_stack(client, cache=True)
        prompt = "Question: Who directed The Silent Mirror?"
        first = cached.complete(prompt)
        cost_after_first = client.meter.cost
        second = cached.complete(prompt)
        assert "serving.cache" not in first.metadata  # answered by the LLM
        assert second.metadata["serving.cache"]["tier"] == "reuse"
        assert first.text == second.text
        assert second.cost == 0.0
        assert client.meter.cost == cost_after_first  # no new spend

    def test_cache_key_override(self):
        client = LLMClient(model="gpt-4")
        cached = build_stack(client, cache=True, cache_key_fn=last_question_key)
        cached.complete("Context: blah blah\nQuestion: Who directed The Silent Mirror?")
        spent = client.meter.cost
        again = cached.complete("Different framing\nQuestion: Who directed The Silent Mirror?")
        assert again.metadata["serving.cache"]["tier"] == "reuse"
        assert client.meter.cost == spent

    def test_augment_tier_adds_example(self):
        client = LLMClient(model="gpt-4")
        cache = SemanticCache(reuse_threshold=0.999, augment_threshold=0.4)
        cached = build_stack(client, cache=cache)
        cached.complete("Question: Who was born earlier, Ada Lovelace or Bob Noyce?")
        calls = client.meter.calls
        # Paraphrase-ish second query: augment tier → still calls the LLM.
        second = cached.complete("Question: Who was born earlier, Ada Lovelace or Cy Noyce?")
        assert "serving.cache" not in second.metadata
        assert client.meter.calls == calls + 1
        assert cache.stats.augment_hits == 1
