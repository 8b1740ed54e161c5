"""Property tests: the vectordb-backed cache is a bit-identical drop-in
for the seed linear scan — tiers, similarities, matched entries, stats,
and eviction order, over randomized workloads and all four policies.
At thresholds 1.0 the cache is exact-match and must not use vectors at all."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.perf import (
    LinearScanAdmission,
    LinearScanCache,
    linear_mmr_select,
    linear_similarity_select,
)
from repro.core.cache import AdmissionPredictor, EvictionPolicy, SemanticCache
from repro.core.prompts.selector import mmr_select, similarity_select
from repro.llm.embeddings import EmbeddingModel
from repro.serving.cluster import ClusterRouter, ShardedSemanticCache
from repro.vectordb import FlatIndex

_words = st.sampled_from(
    ["stadium", "concert", "privacy", "cache", "query", "film", "director",
     "patient", "table", "column", "vector", "index", "lake", "schema"]
)
query_strategy = st.lists(_words, min_size=2, max_size=6).map(" ".join)


def _sig(lookup):
    return (lookup.tier, lookup.similarity, lookup.entry.key if lookup.entry else None)


def _usage(cache):
    """Per-entry counters and LRFU state, in insertion order."""
    return [
        (e.key, e.reuse_hits, e.augment_hits, e.last_access, e.crf, e.crf_updated_at)
        for e in cache.entries.values()
    ]


def _assert_matches_oracle(queries, capacity, policy):
    reference = LinearScanCache(
        capacity=capacity, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
    )
    vectorized = SemanticCache(
        capacity=capacity, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
    )
    for query in queries:
        peeked = _sig(vectorized.peek(query))
        ref_lookup = reference.lookup(query)
        vec_lookup = vectorized.lookup(query)
        # Bitwise float equality on similarity, not approx; peek tiers the
        # same way and leaves no trace for the comparisons below to see.
        assert _sig(ref_lookup) == _sig(vec_lookup) == peeked
        if ref_lookup.tier != "reuse":
            reference.put(query, f"answer {query}", cost=0.01)
            vectorized.put(query, f"answer {query}", cost=0.01)
        # Same keys in the same insertion order == same eviction victims.
        assert list(reference.entries) == list(vectorized.entries)
        assert _usage(reference) == _usage(vectorized)
        assert reference._clock == vectorized._clock
    assert reference.stats == vectorized.stats
    assert reference.stats.evictions == vectorized.stats.evictions


@settings(max_examples=25, deadline=None)
@given(
    queries=st.lists(query_strategy, min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(list(EvictionPolicy)),
)
def test_vectorized_cache_bit_identical_to_linear_scan(queries, capacity, policy):
    _assert_matches_oracle(queries, capacity, policy)


# A small pool, so most lookups requery a live key (answered before any
# embedding); the case/punctuation variants share one embedding with their
# base text, so only the key can tell them apart.
_requery_pool = [
    "stadium concert tickets",
    "Stadium Concert Tickets",
    "stadium, concert: tickets",
    "tickets concert stadium",
    "privacy of the patient table",
    "privacy of the patient column",
    "vector index",
]


@settings(max_examples=40, deadline=None)
@given(
    queries=st.lists(st.sampled_from(_requery_pool), min_size=1, max_size=80),
    capacity=st.integers(min_value=1, max_value=6),
    policy=st.sampled_from(list(EvictionPolicy)),
)
def test_exact_requery_stream_bit_identical_to_linear_scan(queries, capacity, policy):
    _assert_matches_oracle(queries, capacity, policy)


@settings(max_examples=25, deadline=None)
@given(queries=st.lists(query_strategy, min_size=1, max_size=50))
def test_admission_decisions_bit_identical(queries):
    reference = LinearScanAdmission(history=8, similarity_threshold=0.9)
    vectorized = AdmissionPredictor(history=8, similarity_threshold=0.9)
    for query in queries:
        assert reference.should_admit(query) == vectorized.should_admit(query)
    assert len(reference._seen) == len(vectorized._seen)


@settings(max_examples=20, deadline=None)
@given(
    pool=st.lists(query_strategy, min_size=1, max_size=25),
    query=query_strategy,
    k=st.integers(min_value=1, max_value=8),
)
def test_selectors_match_linear_scan(pool, query, k):
    embedder = EmbeddingModel()
    assert linear_similarity_select(query, pool, k, embedder=embedder) == similarity_select(
        query, pool, k, text_of=lambda s: s, embedder=embedder
    )
    assert linear_mmr_select(query, pool, k, embedder=embedder) == mmr_select(
        query, pool, k, text_of=lambda s: s, embedder=embedder
    )


class TestPutRefresh:
    def test_refresh_updates_cost_of_miss(self):
        cache = SemanticCache()
        cache.put("query about stadiums", "old", cost=0.10)
        cache.put("query about stadiums", "new", cost=0.25)
        entry = cache.entries["query about stadiums"]
        assert entry.response == "new"
        assert entry.cost_of_miss == pytest.approx(0.25)
        # A reuse hit after refresh credits the refreshed cost.
        cache.lookup("query about stadiums")
        assert cache.stats.cost_saved == pytest.approx(0.25)

    def test_refresh_touches_lrfu(self):
        cache = SemanticCache(policy=EvictionPolicy.LRFU)
        cache.put("query about stadiums", "a")
        crf_before = cache.entries["query about stadiums"].crf
        cache.put("query about stadiums", "b")
        assert cache.entries["query about stadiums"].crf > crf_before


class TestIndexBackends:
    def _fill(self, cache, n=20):
        for i in range(n):
            cache.put(f"query number {i} about topic {i}", f"answer {i}")

    def test_cache_and_partitions_are_flat_at_any_capacity(self):
        # Text embeddings do not cluster, so no capacity switches the cache
        # or a cluster partition onto another index.
        assert type(SemanticCache(capacity=65_536).index) is FlatIndex
        sharded = ShardedSemanticCache(ClusterRouter(["s0", "s1"]), tenant_capacity=200_000)
        sharded.put("acme", "query about stadiums", "answer")
        [(_shard, partition)] = sharded.partitions_of("acme")
        assert partition.capacity == 100_000
        assert type(partition.index) is FlatIndex
        assert "2 x FlatIndex(dim=64, ~100000 rows/partition)" in sharded.describe()
        with pytest.raises(ValueError):
            ShardedSemanticCache(ClusterRouter(["s0"]), tenant_capacity=0)

    def test_eviction_keeps_index_in_sync(self):
        cache = SemanticCache(capacity=4)
        self._fill(cache, n=12)
        assert len(cache) == 4
        cache.flush()
        assert len(cache.index) == 4
        assert sorted(cache.entries) == sorted(vid for vid, _v in cache.index.items())


class TestAdmissionEmbedsOnce:
    def test_should_admit_embeds_query_once(self):
        predictor = AdmissionPredictor()
        calls = []
        original = predictor.embedder.embed

        def counting_embed(text):
            calls.append(text)
            return original(text)

        predictor.embedder.embed = counting_embed
        predictor.should_admit("some query about concerts")
        assert len(calls) == 1
        predictor.should_admit("a sub query", kind="sub")
        assert len(calls) == 2

    def test_ring_buffer_overwrites_oldest(self):
        predictor = AdmissionPredictor(history=3, similarity_threshold=0.99)
        for i in range(5):
            predictor.observe(f"filler query number {i}")
        seen = predictor._seen
        assert len(seen) == 3
        expected = [predictor.embedder.embed(f"filler query number {i}") for i in (2, 3, 4)]
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)


class _CountingEmbedder(EmbeddingModel):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)

    def embed_batch(self, texts):
        self.calls += 1
        return super().embed_batch(texts)


class _CountingIndex(FlatIndex):
    def __init__(self, dim=64):
        super().__init__(dim=dim)
        self.calls = 0

    def __getattribute__(self, name):
        if name in ("add", "remove", "search", "search_top1", "search_top1_many"):
            self.calls += 1
        return super().__getattribute__(name)


def _exact_cache(capacity=4, policy=EvictionPolicy.LRU, augment_threshold=1.0):
    cache = SemanticCache(
        capacity=capacity,
        policy=policy,
        reuse_threshold=1.0,
        augment_threshold=augment_threshold,
    )
    cache.index = _CountingIndex()
    cache.embedder = _CountingEmbedder()
    return cache


class TestExactMatchMode:
    """Both thresholds 1.0: key equality, no vectors."""

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_stream_never_touches_embedder_or_index(self, policy):
        cache = _exact_cache(capacity=4, policy=policy)
        plain = SemanticCache(
            capacity=4, policy=policy, reuse_threshold=1.0, augment_threshold=1.0
        )
        stream = [f"prompt number {i % 7}" for i in range(40)]
        for query in stream:
            assert cache.batch_probe([query]) is None
            found, want = cache.lookup(query), plain.lookup(query)
            assert _sig(found) == _sig(want) == _sig(cache.peek(query))
            if found.tier == "miss":
                cache.put(query, f"answer {query}", cost=0.01)
                plain.put(query, f"answer {query}", cost=0.01)
            else:
                assert found.entry.response == f"answer {query}"
        cache.flush()
        assert cache.embedder.calls == 0 and cache.index.calls == 0
        assert cache.stats.evictions > 0 and len(cache) == 4
        assert all(entry.embedding is None for entry in cache.entries.values())
        assert cache.stats == plain.stats and _usage(cache) == _usage(plain)

    def test_same_embedding_is_not_the_same_key(self):
        cache = _exact_cache()
        cache.put("price: 50", "fifty")
        for variant in ("price. 50", "PRICE: 50"):
            assert np.array_equal(
                EmbeddingModel().embed(variant), EmbeddingModel().embed("price: 50")
            )
            assert cache.lookup(variant).tier == "miss"
            assert cache.peek(variant).tier == "miss"
        assert cache.lookup("price: 50").entry.response == "fifty"
        assert (cache.stats.reuse_hits, cache.stats.misses) == (1, 2)

    def test_admission_gated_put_keeps_no_vector(self):
        cache = _exact_cache()
        cache.admission = AdmissionPredictor(history=8, similarity_threshold=0.9)
        assert cache.put("seen once", "a") is None  # one-hit wonder refused
        entry = cache.put("seen once", "a")
        assert entry is not None and entry.embedding is None
        assert cache.lookup("seen once").tier == "reuse"
        assert cache.embedder.calls == 0 and cache.index.calls == 0

    def test_similarity_cache_still_uses_vectors(self):
        # The other side of the branch: any threshold below 1.0 embeds.
        cache = _exact_cache(augment_threshold=0.99)
        cache.put("price: 50", "fifty")
        assert cache.lookup("price. 50").tier == "reuse"
        assert cache.embedder.calls > 0 and cache.index.calls > 0
