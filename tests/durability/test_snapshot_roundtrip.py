"""Property tests: recover(checkpoint(x)) is bit-identical to x.

Each component's ``state_dict()`` / ``load_state()`` pair is driven
with hypothesis-generated workloads, the state is forced through a real
JSON round-trip (exactly what the durable files see), loaded into a
freshly constructed component, and the restored component must be indistinguishable — snapshot-for-snapshot
*and* behavior-for-behavior — from the original.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import EvictionPolicy, SemanticCache
from repro.llm.client import Usage, UsageMeter
from repro.serving.stats import ServiceStats

_words = st.sampled_from(
    ["stadium", "concert", "privacy", "cache", "query", "film", "director",
     "patient", "table", "column", "vector", "index"]
)
query_strategy = st.lists(_words, min_size=2, max_size=6).map(" ".join)


def json_roundtrip(payload):
    """The exact transformation a snapshot file applies to the payload."""
    return json.loads(json.dumps(payload))


def fresh_like(cache: SemanticCache) -> SemanticCache:
    return SemanticCache(
        capacity=cache.capacity,
        reuse_threshold=cache.reuse_threshold,
        augment_threshold=cache.augment_threshold,
        policy=cache.policy,
        embedding_dim=cache.embedder.dim,
        lrfu_lambda=cache.lrfu_lambda,
    )


class TestCacheRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(
        queries=st.lists(query_strategy, min_size=0, max_size=30),
        capacity=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(list(EvictionPolicy)),
    )
    def test_roundtrip_is_bit_identical(self, queries, capacity, policy):
        cache = SemanticCache(capacity=capacity, policy=policy)
        for query in queries:
            if cache.lookup(query).tier != "reuse":
                cache.put(query, f"answer for {query}")
        snapshot = cache.state_dict()

        restored = fresh_like(cache)
        restored.load_state(json_roundtrip(snapshot))

        assert restored.state_dict() == snapshot
        assert list(restored.entries) == list(cache.entries)  # insertion order too
        assert restored._clock == cache._clock
        assert restored.stats == cache.stats
        for key, entry in cache.entries.items():
            other = restored.entries[key]
            mine, theirs = dataclasses.asdict(entry), dataclasses.asdict(other)
            # Embeddings are re-derived on restore (pure function of the
            # key), so they must come back element-for-element identical.
            assert np.array_equal(mine.pop("embedding"), theirs.pop("embedding"))
            assert mine == theirs

    @settings(max_examples=15, deadline=None)
    @given(
        queries=st.lists(query_strategy, min_size=1, max_size=20, unique=True),
        probes=st.lists(query_strategy, min_size=1, max_size=10),
        policy=st.sampled_from(list(EvictionPolicy)),
    )
    def test_restored_cache_behaves_identically(self, queries, probes, policy):
        # Not just equal state: the same future must unfold from it. Every
        # probe must land in the same tier with the same response, and any
        # evictions it causes must pick the same victims.
        cache = SemanticCache(capacity=4, policy=policy)
        for query in queries:
            if cache.lookup(query).tier != "reuse":
                cache.put(query, f"answer for {query}")
        restored = fresh_like(cache)
        restored.load_state(json_roundtrip(cache.state_dict()))

        for probe in probes:
            mine, theirs = cache.lookup(probe), restored.lookup(probe)
            assert mine.tier == theirs.tier
            assert (mine.entry.response if mine.entry else None) == (
                theirs.entry.response if theirs.entry else None
            )
            if mine.tier != "reuse":
                cache.put(probe, "fresh")
                restored.put(probe, "fresh")
        assert restored.state_dict() == cache.state_dict()

    @pytest.mark.parametrize("policy", list(EvictionPolicy), ids=lambda p: p.value)
    @settings(max_examples=10, deadline=None)
    @given(
        queries=st.lists(query_strategy, min_size=6, max_size=16, unique=True),
        probes=st.lists(query_strategy, min_size=1, max_size=10),
    )
    def test_restore_into_full_cache_behaves_identically(self, policy, queries, probes):
        # Both caches are full and have evicted, so each already ranks its
        # entries for eviction: the restore must replace the target's
        # order, and every later victim must be the one the original picks.
        cache = SemanticCache(capacity=4, policy=policy)
        for query in queries:
            cache.put(query, f"answer for {query}")
            cache.lookup(queries[0])
        restored = fresh_like(cache)
        for i in range(6):
            restored.put(f"placeholder {i}", "stale")
        restored.load_state(json_roundtrip(cache.state_dict()))

        for probe in probes:
            mine, theirs = cache.lookup(probe), restored.lookup(probe)
            assert mine.tier == theirs.tier
            if mine.tier != "reuse":
                cache.put(probe, "fresh")
                restored.put(probe, "fresh")
            assert list(restored.entries) == list(cache.entries)
        assert restored.state_dict() == cache.state_dict()

    def test_empty_cache_roundtrip(self):
        cache = SemanticCache(capacity=3)
        restored = fresh_like(cache)
        restored.load_state(json_roundtrip(cache.state_dict()))
        assert restored.state_dict() == cache.state_dict()
        assert len(restored) == 0

    def test_single_entry_roundtrip(self):
        cache = SemanticCache(capacity=3, policy=EvictionPolicy.LRFU)
        cache.lookup("who directed the film")
        cache.put("who directed the film", "the director")
        restored = fresh_like(cache)
        restored.load_state(json_roundtrip(cache.state_dict()))
        assert restored.state_dict() == cache.state_dict()
        assert restored.lookup("who directed the film").tier == "reuse"

    @settings(max_examples=15, deadline=None)
    @given(
        queries=st.lists(query_strategy, min_size=1, max_size=30),
        probes=st.lists(query_strategy, min_size=1, max_size=10),
        policy=st.sampled_from(list(EvictionPolicy)),
    )
    def test_exact_match_cache_roundtrip_keeps_no_vectors(self, queries, probes, policy):
        cache = SemanticCache(
            capacity=4, policy=policy, reuse_threshold=1.0, augment_threshold=1.0
        )
        for query in queries:
            if cache.lookup(query).tier != "reuse":
                cache.put(query, f"answer for {query}")
        snapshot = cache.state_dict()
        restored = fresh_like(cache)
        restored.load_state(json_roundtrip(snapshot))

        assert restored.state_dict() == snapshot
        assert all(entry.embedding is None for entry in restored.entries.values())
        assert len(restored.index) == 0
        for probe in probes:
            mine, theirs = cache.lookup(probe), restored.lookup(probe)
            assert mine.tier == theirs.tier
            if mine.tier != "reuse":
                cache.put(probe, "fresh")  # evicts: the index must not be asked
                restored.put(probe, "fresh")
        assert restored.state_dict() == cache.state_dict()

    def test_mismatched_config_is_rejected(self):
        cache = SemanticCache(capacity=4)
        snapshot = cache.state_dict()
        other = SemanticCache(capacity=8)
        try:
            other.load_state(snapshot)
        except ValueError:
            pass
        else:
            raise AssertionError("capacity mismatch must raise")


class TestMeterRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["gpt-4", "gpt-3.5-turbo", "babbage-002"]),
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=0,
            max_size=20,
        )
    )
    def test_roundtrip_is_bit_identical(self, events):
        meter = UsageMeter()
        for model, prompt_tokens, completion_tokens in events:
            meter.record(
                model,
                Usage(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens),
                prompt_tokens * 1.5e-6 + completion_tokens * 2e-6,
            )
        snapshot = meter.state_dict()
        restored = UsageMeter()
        restored.load_state(json_roundtrip(snapshot))
        assert restored.state_dict() == snapshot
        assert restored.calls == meter.calls
        assert restored.cost == meter.cost  # bit-identical, not approx
        assert restored.per_model == meter.per_model

    def test_empty_meter_roundtrip(self):
        restored = UsageMeter()
        restored.load_state(json_roundtrip(UsageMeter().state_dict()))
        assert restored.calls == 0
        assert restored.per_model == {}


class TestStatsRoundtrip:
    def _busy_stats(self) -> ServiceStats:
        from repro.llm.client import LLMClient
        from repro.serving import build_stack

        stats = ServiceStats()
        stack = build_stack(
            LLMClient(),
            cache=SemanticCache(reuse_threshold=0.9),
            chain=("babbage-002", "gpt-4"),
            budget_usd=10.0,
            stats=stats,
        )
        for i in range(8):
            stack.complete(f"Question: who directed film number {i % 5}?")
        return stats

    def test_roundtrip_is_bit_identical(self):
        stats = self._busy_stats()
        snapshot = stats.state_dict()
        restored = ServiceStats()
        restored.load_state(json_roundtrip(snapshot))
        assert restored.state_dict() == snapshot

    def test_int_keyed_histograms_survive_json(self):
        # JSON stringifies dict keys; the codec must bring them back as ints.
        stats = ServiceStats()
        stats.scheduler_batch_sizes[4] = 2
        stats.scheduler_queue_depths[0] = 7
        restored = ServiceStats()
        restored.load_state(json_roundtrip(stats.state_dict()))
        assert restored.scheduler_batch_sizes == {4: 2}
        assert restored.scheduler_queue_depths == {0: 7}

    def test_empty_stats_roundtrip(self):
        restored = ServiceStats()
        restored.load_state(json_roundtrip(ServiceStats().state_dict()))
        assert restored.state_dict() == ServiceStats().state_dict()


def test_tenant_namespaces_roundtrip_into_the_held_objects():
    stats = ServiceStats()
    for name, spent in (("acme", 0.25), ("globex", 1.5)):
        child = stats.tenant(name)
        child.budget_limit_usd = 2.0
        child.budget_spent_usd = spent
        child.admitted_requests = 3
        child.quota_rejections = 1
        child.record_llm_call("gpt-4", Usage(prompt_tokens=7, completion_tokens=2), spent, 4.0)
    snapshot = stats.state_dict()
    assert set(snapshot["tenants"]) == {"acme", "globex"}
    restored = ServiceStats()
    held = restored.tenant("acme")  # a layer already writing to the namespace
    restored.load_state(json_roundtrip(snapshot))
    assert restored.state_dict() == snapshot
    assert restored.tenant("acme") is held
    assert held.budget_spent_usd == 0.25


def test_stack_restores_spend_from_a_payload_with_a_budget_section():
    # Payloads written before the stats section became the only home of the
    # budget's spend also carry a "budget" section and a "_tenants" field;
    # both are ignored and the spend still comes back.
    from repro.durability import restore_stack_state, snapshot_stack_state
    from repro.llm.client import LLMClient
    from repro.serving import build_stack

    stack = build_stack(LLMClient(), budget_usd=10.0)
    for i in range(4):
        stack.complete(f"Question: who directed film number {i}?")
    payload = json_roundtrip(snapshot_stack_state(stack))
    spent = stack.stats.budget_spent_usd
    assert spent > 0
    older = json_roundtrip(payload)
    older["state"]["budget"] = {"limit_usd": 10.0, "spent_usd": spent}
    older["state"]["stats"]["_tenants"] = {}
    del older["state"]["stats"]["tenants"]
    for fresh_payload in (payload, older):
        fresh = build_stack(LLMClient(), budget_usd=10.0)
        restore_stack_state(fresh, fresh_payload)
        budget_layer = fresh.provider
        assert budget_layer.spent_usd == spent
        assert fresh.stats.snapshot()["budget"]["spent_usd"] == round(spent, 6)
