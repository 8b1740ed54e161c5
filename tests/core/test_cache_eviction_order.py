"""Victim order: a put into a full cache evicts exactly the entry the
seed's ``min()`` over every entry picks — under all four policies, through
both float-underflow regimes of the decaying scores, across restores, and
per partition of a full sharded cache.

The reference is :meth:`repro.bench.perf.LinearScanCache._evict` run on a
copy of the entries taken just before each put. The clock is advanced with
key probes (dict hits on one "ticker" entry), which cost microseconds, so
tens of thousands of ticks fit in a tier-1 test.
"""

import copy
import random
import sys
import threading

import pytest

from repro.bench.perf import LinearScanCache, run_put_full
from repro.core.cache import CacheEntry, CacheStats, EvictionPolicy, SemanticCache
from repro.serving.cluster import ClusterRouter, ShardedSemanticCache

CONFIGS = [
    (EvictionPolicy.LRU, 0.1),
    (EvictionPolicy.LFU, 0.1),
    (EvictionPolicy.WEIGHTED, 0.1),
    (EvictionPolicy.LRFU, 0.1),
    (EvictionPolicy.LRFU, 0.5),
    (EvictionPolicy.LRFU, 1.0),
]
_IDS = [f"{policy.value}-{lam}" for policy, lam in CONFIGS]


def _seed_score(entry, policy, clock, lam):
    if policy is EvictionPolicy.WEIGHTED:
        return entry.weighted_score(clock)
    return entry.lrfu_score(clock, lam)


def _underflow_ages(policy, lam):
    """First ages at which an untouched entry's seed score is subnormal and
    0.0, from the seed formula itself; None for the non-decaying policies."""
    if policy in (EvictionPolicy.LRU, EvictionPolicy.LFU):
        return None
    probe = CacheEntry(key="", embedding=None, response="", crf=1.0)
    age = 0
    while _seed_score(probe, policy, age, lam) >= sys.float_info.min:
        age += 1
    subnormal = age
    while _seed_score(probe, policy, age, lam) > 0.0:
        age += 1
    return subnormal, age


class _Oracle:
    """Checks every eviction of one cache against the seed scan."""

    def __init__(self, cache):
        self.cache = cache
        self.reference = LinearScanCache(
            capacity=cache.capacity, policy=cache.policy, lrfu_lambda=cache.lrfu_lambda
        )
        self.evictions = 0
        self.subnormal_victims = 0
        self.zero_ties = 0

    def expected_victim(self):
        cache, reference = self.cache, self.reference
        reference.entries = {key: copy.copy(e) for key, e in cache.entries.items()}
        reference._clock = cache._clock + 1  # put ticks before it evicts
        reference._evict()
        (victim,) = cache.entries.keys() - reference.entries.keys()
        if cache.policy in (EvictionPolicy.WEIGHTED, EvictionPolicy.LRFU):
            scores = [
                _seed_score(e, cache.policy, reference._clock, cache.lrfu_lambda)
                for e in cache.entries.values()
            ]
            victim_score = min(scores)
            if 0.0 < victim_score < sys.float_info.min:
                self.subnormal_victims += 1
            if scores.count(0.0) >= 2:
                self.zero_ties += 1
        return victim

    def put(self, key, response="answer"):
        cache = self.cache
        expected = None
        if key not in cache.entries and len(cache) >= cache.capacity:
            expected = self.expected_victim()
        before = set(cache.entries)
        cache.put(key, response)
        evicted = before - set(cache.entries)
        assert evicted == ({expected} if expected else set()), (
            f"clock {cache._clock}: evicted {evicted}, seed evicts {expected}"
        )
        self.evictions += len(evicted)


def _new_key(rng, i):
    # Random prefixes, so key order (the seed's tie-break) is unrelated to age.
    return f"{rng.randrange(10**6):06d}-{i}"


@pytest.mark.parametrize("policy,lam", CONFIGS, ids=_IDS)
def test_victims_match_seed_scan_through_underflow(policy, lam):
    rng = random.Random(7)
    capacity = 16
    cache = SemanticCache(capacity=capacity, policy=policy, lrfu_lambda=lam)
    oracle = _Oracle(cache)
    ages = _underflow_ages(policy, lam)
    subnormal, zero = ages if ages else (2000, 2200)
    band = max(zero - subnormal, 1)
    # Stagger the fill across the subnormal band, go quiet until the oldest
    # entry nears it, then evict one entry per gap: the early victims score
    # subnormal, and by the time half the old entries are gone the rest
    # score 0.0 and tie.
    spread = max(band // capacity, 1)
    gap = max(band // 4, 1)
    ticker = "~ticker"
    cache.put(ticker, "tick")
    serial = 0

    def tick(n):
        for _ in range(n):
            cache.lookup(ticker)

    def fill():
        nonlocal serial
        for _ in range(capacity - 1):
            serial += 1
            oracle.put(_new_key(rng, serial))
            tick(spread)
            # Some entries get hits (via both hit paths) or a refresh, so
            # that bases and CRFs differ within the underflow set.
            live = [k for k in cache.entries if k != ticker]
            for key in rng.sample(live, min(2, len(live))):
                roll = rng.random()
                if roll < 0.4:
                    cache.lookup(key)
                elif roll < 0.8:
                    cache.touch_hit(key, rng.choice(["reuse", "augment"]))
                else:
                    cache.put(key, "refreshed")

    for _round in range(2):
        fill()
        tick(max(subnormal - capacity * spread, 0))
        for _ in range(capacity + 8):
            serial += 1
            oracle.put(_new_key(rng, serial))
            tick(gap)
    assert oracle.evictions >= 2 * capacity
    if ages is not None and lam < 1.0:
        # The drive really reached both regimes the heap cannot order alone.
        assert oracle.subnormal_victims > 0
    if ages is not None:
        assert oracle.zero_ties > 0


def _entry(key, **fields):
    return {
        "key": key,
        "response": f"answer {key}",
        "kind": "original",
        "cost_of_miss": 0.0,
        "reuse_hits": 0,
        "augment_hits": 0,
        "inserted_at": 0,
        **fields,
    }


def _tied_payload(cache, rng, clock, newest):
    """Entries whose seed scores tie exactly while their stamps differ: at
    λ = 0.5 a CRF of 1.5·2^k stamped k ticks earlier scores the same, and
    under every policy equal stamps (and hit counts) tie. Keys are random,
    so only a re-score with the seed formula finds the key tie-break."""
    entries = []
    for group in range(cache.capacity // 4):
        stamp = newest - 7 * group
        for k in range(4):
            crf = 1.5 * 2.0**k if cache.lrfu_lambda == 0.5 else 1.5
            at = stamp - k if cache.lrfu_lambda == 0.5 else stamp
            entries.append(
                _entry(
                    _new_key(rng, len(entries)),
                    reuse_hits=group % 2,
                    last_access=at,
                    crf=crf,
                    crf_updated_at=at,
                )
            )
    return {
        "capacity": cache.capacity,
        "reuse_threshold": cache.reuse_threshold,
        "augment_threshold": cache.augment_threshold,
        "policy": cache.policy.value,
        "lrfu_lambda": cache.lrfu_lambda,
        "embedding_dim": cache.embedder.dim,
        "clock": clock,
        "admission_rejects": 0,
        "stats": {field: 0 for field in CacheStats.__dataclass_fields__},
        "entries": entries,
    }


@pytest.mark.parametrize("policy,lam", CONFIGS, ids=_IDS)
def test_restore_into_full_cache_evicts_seed_victims(policy, lam):
    rng = random.Random(11)
    # Young populations, and at clock 70,000 old ones: WEIGHTED scores are
    # subnormal at ages ~67,000 and 0.0 at ~69,000, LRFU ones 0.0 for both.
    for clock, newest in ((100, 95), (70_000, 69_995), (70_000, 3_000), (70_000, 1_000)):
        cache = SemanticCache(
            capacity=16,
            policy=policy,
            lrfu_lambda=lam,
            reuse_threshold=1.0,
            augment_threshold=1.0,
        )
        # Something to replace: restore must drop it from the eviction order.
        for i in range(16):
            cache.put(f"old-{i}", "stale")
        cache.load_state(_tied_payload(cache, rng, clock, newest))
        assert len(cache) == cache.capacity
        oracle = _Oracle(cache)
        for i in range(cache.capacity):
            oracle.put(f"new-{rng.randrange(10**6):06d}-{i}")
            if i % 3 == 0:
                cache.lookup(rng.choice(list(cache.entries)))
        assert oracle.evictions == cache.capacity
        # A snapshot of the restored, evicted-into cache restores the same
        # future again.
        again = SemanticCache(
            capacity=16,
            policy=policy,
            lrfu_lambda=lam,
            reuse_threshold=1.0,
            augment_threshold=1.0,
        )
        again.load_state(cache.state_dict())
        for i in range(8):
            key = f"later-{i}"
            cache.put(key, "x")
            again.put(key, "x")
            assert list(cache.entries) == list(again.entries)


@pytest.mark.parametrize("policy,lam", CONFIGS, ids=_IDS)
def test_concurrent_puts_and_hits_keep_every_entry_ranked(policy, lam):
    # Six threads on two cores, switching every microsecond: puts that
    # evict, key hits and touch_hit races with eviction. Afterwards every
    # live key must be ranked exactly once (heap, band or zero set), and
    # the order must still pick the seed's victims.
    cache = SemanticCache(
        capacity=24,
        policy=policy,
        lrfu_lambda=lam,
        reuse_threshold=1.0,
        augment_threshold=1.0,
    )
    errors = []

    def worker(n):
        rng = random.Random(n)
        try:
            for i in range(1500):
                roll = rng.random()
                if roll < 0.4:
                    cache.put(f"{rng.randrange(10**6):06d}-{n}-{i}", "answer")
                elif roll < 0.8:
                    live = list(cache.entries)
                    if live:
                        cache.lookup(rng.choice(live))
                else:
                    try:
                        cache.touch_hit(rng.choice(list(cache.entries)), "augment")
                    except (KeyError, IndexError):  # evicted meanwhile / still empty
                        pass
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache) == cache.capacity
    order = cache._order
    homes = [set(order._fresh), set(order._band), order._zero]
    assert sum(len(home) for home in homes) == len(cache)
    assert set().union(*homes) == set(cache.entries)
    oracle = _Oracle(cache)
    for i in range(cache.capacity):
        oracle.put(f"after-{i}")
    assert oracle.evictions == cache.capacity


@pytest.mark.parametrize("policy", list(EvictionPolicy), ids=lambda p: p.value)
def test_sharded_partitions_evict_seed_victims(policy):
    rng = random.Random(5)
    lam = 0.5  # both underflow boundaries within ~1,100 ticks
    sharded = ShardedSemanticCache(
        ClusterRouter(["s0", "s1", "s2"]),
        tenant_capacity=48,
        policy=policy,
        lrfu_lambda=lam,
    )
    tenant = "t"
    keys = []
    oracles = {}

    def put(key):
        owner = sharded.router.route_request(tenant, key)
        partition = sharded._partition(owner, tenant)
        if partition is None:  # first put creates it; nothing to evict
            sharded.put(tenant, key, "answer")
            oracles[owner] = _Oracle(sharded._partition(owner, tenant))
            return
        oracle = oracles[owner]
        expected = None
        if key not in partition.entries and len(partition) >= partition.capacity:
            expected = oracle.expected_victim()
        before = set(partition.entries)
        sharded.put(tenant, key, "answer")
        evicted = before - set(partition.entries)
        assert evicted == ({expected} if expected else set())
        oracle.evictions += len(evicted)

    for i in range(600):
        key = _new_key(rng, i)
        keys.append(key)
        put(key)
        # Exact-key lookups go through touch_hit on the owning partition.
        live = list(sharded.entries_of(tenant))
        for _ in range(rng.choice([0, 0, 1, 30])):
            sharded.lookup(tenant, rng.choice(live))
    assert len(oracles) == 3
    assert all(oracle.evictions > 50 for oracle in oracles.values())


def test_put_full_cell_times_only_evicting_puts_with_seed_victims():
    cells = run_put_full(sizes=(64,), passes=2, pass_ops=5)
    assert set(cells) == {policy.value for policy in EvictionPolicy}
    for by_size in cells.values():
        cell = by_size["64"]
        assert cell["evictions"] == 1 + 2 * 5  # the cold put, then every warm one
        assert cell["mismatches"] == 0
