"""Property-based tests for the cache's write-behind put path (hypothesis).

Puts are amortized two layers deep — the cache parks un-embedded entries
in a put buffer, and the flat index parks vectors in an insert buffer —
so these properties pin the contract that buffering must never change:
every probe decision, statistic, and eviction is bit-identical to the
frozen seed linear scan, under put-heavy interleavings, across all four
eviction policies, through batch probes, and across snapshot boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.perf import LinearScanCache
from repro.core.cache import EvictionPolicy, SemanticCache

_words = st.sampled_from(
    ["stadium", "concert", "privacy", "cache", "query", "film", "director",
     "patient", "table", "column", "vector", "index"]
)
query_strategy = st.lists(_words, min_size=2, max_size=6).map(" ".join)

# Put-heavy op stream: roughly two inserts per probe.
op_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "put", "lookup"]), query_strategy),
    min_size=1,
    max_size=60,
)


def _drive(cache, ops):
    """Run an op stream and return its full decision signature."""
    signature = []
    for kind, query in ops:
        if kind == "put":
            entry = cache.put(query, f"answer for {query}", cost=0.01)
            signature.append(("put", entry is not None))
        else:
            lookup = cache.lookup(query)
            signature.append(
                (
                    "lookup",
                    lookup.tier,
                    lookup.entry.key if lookup.entry else None,
                    lookup.similarity,
                )
            )
    signature.append(("entries", list(cache.entries)))
    stats = cache.stats
    signature.append(
        (
            "stats",
            stats.lookups,
            stats.reuse_hits,
            stats.augment_hits,
            stats.misses,
            stats.evictions,
            stats.cost_saved,
        )
    )
    return signature


@settings(max_examples=25, deadline=None)
@given(
    ops=op_strategy,
    capacity=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(list(EvictionPolicy)),
)
def test_put_heavy_bit_identical_to_seed_scan(ops, capacity, policy):
    """Buffered puts + vectorized probes == the seed's eager linear scan,
    decision for decision (tier, matched key, exact similarity float),
    eviction for eviction, under every policy."""
    seed = LinearScanCache(
        capacity=capacity, reuse_threshold=0.9, augment_threshold=0.7, policy=policy
    )
    live = SemanticCache(
        capacity=capacity, reuse_threshold=0.9, augment_threshold=0.7, policy=policy
    )
    assert _drive(live, ops) == _drive(seed, ops)


@settings(max_examples=25, deadline=None)
@given(ops=op_strategy, flush_every=st.integers(min_value=1, max_value=7))
def test_explicit_flush_never_changes_decisions(ops, flush_every):
    """flush() at arbitrary points (and twice in a row) is invisible."""
    plain = SemanticCache(capacity=6, reuse_threshold=0.9, augment_threshold=0.7)
    flushed = SemanticCache(capacity=6, reuse_threshold=0.9, augment_threshold=0.7)
    plain_sig = _drive(plain, ops)

    signature = []
    for i, (kind, query) in enumerate(ops):
        if kind == "put":
            entry = flushed.put(query, f"answer for {query}", cost=0.01)
            signature.append(("put", entry is not None))
        else:
            lookup = flushed.lookup(query)
            signature.append(
                (
                    "lookup",
                    lookup.tier,
                    lookup.entry.key if lookup.entry else None,
                    lookup.similarity,
                )
            )
        if i % flush_every == 0:
            flushed.flush()
            flushed.flush()  # idempotent
    signature.append(("entries", list(flushed.entries)))
    stats = flushed.stats
    signature.append(
        (
            "stats",
            stats.lookups,
            stats.reuse_hits,
            stats.augment_hits,
            stats.misses,
            stats.evictions,
            stats.cost_saved,
        )
    )
    assert signature == plain_sig


@settings(max_examples=25, deadline=None)
@given(ops=op_strategy, chunk=st.integers(min_value=1, max_value=6))
def test_batch_probed_lookups_bit_identical(ops, chunk):
    """Lookups under a batch probe (one gemm + delta merge) == serial."""
    serial = SemanticCache(capacity=6, reuse_threshold=0.9, augment_threshold=0.7)
    batched = SemanticCache(capacity=6, reuse_threshold=0.9, augment_threshold=0.7)
    serial_sig = _drive(serial, ops)

    signature = []
    for start in range(0, len(ops), chunk):
        window = ops[start : start + chunk]
        batched.batch_probe([query for _kind, query in window])
        try:
            for kind, query in window:
                if kind == "put":
                    entry = batched.put(query, f"answer for {query}", cost=0.01)
                    signature.append(("put", entry is not None))
                else:
                    lookup = batched.lookup(query)
                    signature.append(
                        (
                            "lookup",
                            lookup.tier,
                            lookup.entry.key if lookup.entry else None,
                            lookup.similarity,
                        )
                    )
        finally:
            batched.end_probe()
    signature.append(("entries", list(batched.entries)))
    stats = batched.stats
    signature.append(
        (
            "stats",
            stats.lookups,
            stats.reuse_hits,
            stats.augment_hits,
            stats.misses,
            stats.evictions,
            stats.cost_saved,
        )
    )
    assert signature == serial_sig


@settings(max_examples=20, deadline=None)
@given(queries=st.lists(query_strategy, min_size=1, max_size=20, unique=True))
def test_snapshot_never_observes_unflushed_buffer(queries):
    """A snapshot taken mid-put-storm (nothing probed, everything still in
    the write-behind buffer) equals one taken after an explicit flush, and
    the flush it forces leaves every entry embedded and indexed."""
    cache = SemanticCache(capacity=32, reuse_threshold=0.9, augment_threshold=0.7)
    for query in queries:
        cache.put(query, f"answer for {query}")
    # Everything is still parked: no probe has run.
    snapshot = cache.state_dict()

    flushed = SemanticCache(capacity=32, reuse_threshold=0.9, augment_threshold=0.7)
    for query in queries:
        flushed.put(query, f"answer for {query}")
    flushed.flush()
    assert flushed.state_dict() == snapshot

    # state_dict's flush materialized the buffer as a probe would.
    assert not cache._pending_puts
    assert all(entry.embedding is not None for entry in cache.entries.values())
    cache.index.flush()
    assert set(cache.index._live) == set(cache.entries)

    # And the snapshot restores bit-identically into a fresh cache.
    restored = SemanticCache(capacity=32, reuse_threshold=0.9, augment_threshold=0.7)
    restored.load_state(snapshot)
    assert restored.state_dict() == snapshot
    assert list(restored.entries) == list(cache.entries)
