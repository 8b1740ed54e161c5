"""A reuse hit replays the completion its cache entry carries.

The original completion (model, engine, confidence, metadata) lives on the
:class:`~repro.core.cache.CacheEntry` beside the response it came from, so
it is evicted with the entry and replaced or cleared with the response: a
hit can never replay a text the cache no longer holds.
"""

import pytest

from repro.core.cache import EvictionPolicy, SemanticCache
from repro.core.privacy import CacheSharingGate
from repro.llm.client import Completion, Usage
from repro.serving import SemanticCacheMiddleware, ServingCluster

EXACT = dict(reuse_threshold=1.0, augment_threshold=1.0)


class _Echo:
    """A provider whose completions are easy to tell from a cache's own."""

    def complete(self, prompt, model=None):
        return Completion(
            text=f"llm:{prompt}",
            model="m",
            usage=Usage(prompt_tokens=3, completion_tokens=2),
            cost=0.5,
            latency_ms=7.0,
            confidence=0.25,
            engine="echo",
            metadata={"source": prompt},
        )

    def complete_batch(self, shared_prefix, items, model=None):
        return [self.complete(shared_prefix + item, model) for item in items]

    def embed(self, text):
        raise NotImplementedError


class _Stack:
    """A cache layer over a capacity-2 LRU cache."""

    def __init__(self):
        self.cache = SemanticCache(capacity=2, policy=EvictionPolicy.LRU, **EXACT)
        self.layer = SemanticCacheMiddleware(_Echo(), cache=self.cache)

    def complete(self, prompt):
        return self.layer.complete(prompt)

    def put(self, key, response):
        self.cache.put(key, response)


class _Cluster:
    """A one-shard cluster whose tenant holds two entries (LRU)."""

    def __init__(self):
        self.cluster = ServingCluster(
            lambda shard: _Echo(),
            n_shards=1,
            tenant_capacity=2,
            eviction_policy=EvictionPolicy.LRU,
            **EXACT,
        )

    def complete(self, prompt):
        return self.cluster.complete(prompt, tenant="acme")

    def put(self, key, response):
        self.cluster.cache.put("acme", key, response)


FRONTS = [_Stack, _Cluster]


def assert_replays_original(served, prompt):
    assert served.text == f"llm:{prompt}"
    assert (served.model, served.engine, served.confidence) == ("m", "echo", 0.25)
    assert served.cost == 0.0 and served.usage.total_tokens == 0
    assert served.latency_ms == 0.0
    assert served.metadata["source"] == prompt
    assert served.metadata["serving.cache"]["tier"] == "reuse"


@pytest.mark.parametrize("front", FRONTS)
def test_put_after_eviction_is_served_not_the_evicted_original(front):
    serving = front()
    serving.complete("K")
    serving.complete("A")
    serving.complete("B")  # evicts K, the least recently used
    serving.put("K", "fresh answer")
    served = serving.complete("K")
    assert served.text == "fresh answer"
    assert served.model == "cache" and served.engine == "cache"
    assert "source" not in served.metadata


@pytest.mark.parametrize("front", FRONTS)
def test_refresh_without_a_completion_clears_the_original(front):
    serving = front()
    serving.complete("K")
    serving.put("K", "fresh answer")
    served = serving.complete("K")
    assert served.text == "fresh answer"
    assert served.model == "cache"
    assert "source" not in served.metadata


def test_refresh_with_a_completion_replaces_the_original():
    cache = SemanticCache(capacity=2, **EXACT)
    first, second = _Echo().complete("one"), _Echo().complete("two")
    cache.put("K", first.text, completion=first)
    entry = cache.put("K", second.text, completion=second)
    assert entry.completion is second and entry.response == second.text


def test_cluster_reuse_hits_own_and_shared_replay_the_original():
    gate = CacheSharingGate([("alpha", "beta")], epsilon_per_share=0.1)
    cluster = ServingCluster(lambda shard: _Echo(), n_shards=2, sharing=gate, **EXACT)
    prompt = "Question: shared fact?"
    cluster.complete(prompt, tenant="alpha")
    own = cluster.complete(prompt, tenant="alpha")
    assert_replays_original(own, prompt)
    assert "shared_from" not in own.metadata["serving.cache"]
    shared = cluster.complete(prompt, tenant="beta")
    assert_replays_original(shared, prompt)
    assert shared.metadata["serving.cache"]["shared_from"] == "alpha"
    assert cluster.stats.tenant("beta").llm_calls == 0


def test_twelve_full_tenants_still_replay_originals():
    capacity = 8
    cluster = ServingCluster(
        lambda shard: _Echo(), n_shards=4, tenant_capacity=capacity, **EXACT
    )
    tenants = [f"t{i}" for i in range(12)]
    for tenant in tenants:
        for i in range(3 * capacity):
            cluster.complete(f"{tenant} fill {i}", tenant=tenant)
    for tenant in tenants:
        partitions = cluster.cache.partitions_of(tenant)
        assert len(partitions) == 4
        assert all(len(partition) == partition.capacity for _, partition in partitions)
        for key, entry in cluster.cache.entries_of(tenant).items():
            assert entry.completion is not None and entry.completion.text == entry.response
            assert_replays_original(cluster.complete(key, tenant=tenant), key)
