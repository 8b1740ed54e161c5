"""Tests for the sharded multi-tenant serving cluster."""

import contextlib
import itertools
import math
import threading

import pytest

from repro.core.cache import EvictionPolicy, SemanticCache
from repro.core.privacy import CacheSharingGate, PrivacyAccountant, isolation_gate
from repro.errors import BudgetExceededError, QuotaExceededError
from repro.llm.provider import make_client
from repro.serving import ServiceStats
from repro.serving.cluster import (
    ClusterRouter,
    ServingCluster,
    ShardedSemanticCache,
    TenantPolicy,
)

POLICIES = list(EvictionPolicy)


def _stream():
    base = [f"Question: item number {i} of the corpus?" for i in range(12)]
    # exact repeats + rewordings: exercises reuse, augment and miss tiers
    return base + [q + " please" for q in base[:6]] + base[:8]


# ---------------------------------------------------------------------------
# Sharded cache == single cache
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
@pytest.mark.parametrize("policy", POLICIES)
def test_sharded_cache_matches_single_cache(n_shards, policy):
    """Scatter-probe over N partitions must reproduce the unsharded cache
    probe for probe: same tier, same winning entry, same similarity."""
    single = SemanticCache(capacity=256, policy=policy)
    sharded = ShardedSemanticCache(
        ClusterRouter([f"s{i}" for i in range(n_shards)]),
        tenant_capacity=256,
        policy=policy,
    )
    for i, query in enumerate(_stream()):
        want = single.lookup(query)
        got = sharded.lookup("acme", query)
        assert got.tier == want.tier, f"step {i}: {query!r}"
        if want.entry is None:
            assert got.entry is None
            response = f"answer #{i}"
            single.put(query, response, cost=0.01)
            sharded.put("acme", query, response, cost=0.01)
        else:
            assert got.entry is not None
            assert got.entry.key == want.entry.key
            assert got.entry.response == want.entry.response
            assert got.similarity == pytest.approx(want.similarity, abs=1e-12)
    tstats = sharded.stats_for("acme")
    assert tstats.lookups == single.stats.lookups
    assert tstats.reuse_hits == single.stats.reuse_hits
    assert tstats.augment_hits == single.stats.augment_hits
    assert tstats.misses == single.stats.misses
    assert tstats.cost_saved == pytest.approx(single.stats.cost_saved)
    assert len(sharded) == len(single)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_sharded_exact_match_cache_matches_single_cache(n_shards):
    """Thresholds 1.0 (the mode the cluster bench and example run): the
    partitions keep no vectors and the scatter-probe still equals the
    unsharded cache — rewordings miss, repeats hit their own entry."""
    exact = dict(reuse_threshold=1.0, augment_threshold=1.0)
    single = SemanticCache(capacity=256, **exact)
    sharded = ShardedSemanticCache(
        ClusterRouter([f"s{i}" for i in range(n_shards)]), tenant_capacity=256, **exact
    )
    embeds = []
    sharded.embedder.embed = lambda text: embeds.append(text)  # must stay unused
    tiers = []
    for i, query in enumerate(_stream()):
        want = single.lookup(query)
        got = sharded.lookup("acme", query)
        tiers.append(got.tier)
        assert (got.tier, got.similarity) == (want.tier, want.similarity)
        if want.entry is None:
            single.put(query, f"answer #{i}", cost=0.01)
            sharded.put("acme", query, f"answer #{i}", cost=0.01)
        else:
            assert got.entry.key == want.entry.key == query
            assert got.entry.response == want.entry.response
    assert tiers == ["miss"] * 18 + ["reuse"] * 8
    assert embeds == []
    for _shard, partition in sharded.partitions_of("acme"):
        assert len(partition.index) == 0
    tstats = sharded.stats_for("acme")
    assert (tstats.lookups, tstats.reuse_hits, tstats.misses) == (
        single.stats.lookups,
        single.stats.reuse_hits,
        single.stats.misses,
    )
    assert tstats.cost_saved == pytest.approx(single.stats.cost_saved)


def test_sharded_cache_partitions_land_on_owner_shards():
    router = ClusterRouter(["s0", "s1", "s2", "s3"])
    sharded = ShardedSemanticCache(router, tenant_capacity=64)
    for i in range(40):
        sharded.put("acme", f"query #{i}", f"answer #{i}")
    for shard, cache in sharded.partitions_of("acme"):
        for key in cache.entries:
            assert router.route_request("acme", key) == shard
    assert len(sharded.partitions_of("acme")) > 1  # actually sharded


def test_the_ring_cannot_grow_a_shard_without_partitions():
    # Regression: the router was mutable after construction, and a put
    # routed to a shard added later raised KeyError: the sharded cache
    # builds its partition maps once, from the shards it was given.
    cluster = ServingCluster(lambda shard: make_client(), n_shards=2)
    direct = ShardedSemanticCache(ClusterRouter(["s0", "s1"]), tenant_capacity=64)
    try:
        for sharded in (cluster.cache, direct):
            router = sharded.router
            shards = router.shards
            for grow in (lambda: router.add_shard("s2"), lambda: router.shards.append("s2")):
                with contextlib.suppress(AttributeError):
                    grow()
            for i in range(50):
                sharded.put("acme", f"query #{i}", f"answer #{i}")
            assert len(sharded) == 50
            assert router.shards == shards and isinstance(shards, tuple)
            assert {shard for _point, shard in router._ring} == set(sharded._partitions)
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Cluster == single stack
# ---------------------------------------------------------------------------


def _run_cluster(n_shards, stream, concurrent=False, thresholds=(0.95, 0.75)):
    """Serve ``stream``; returns the completions and the (closed) cluster."""
    cluster = ServingCluster(
        lambda shard: make_client(),
        n_shards=n_shards,
        tenant_capacity=128,
        reuse_threshold=thresholds[0],
        augment_threshold=thresholds[1],
    )
    try:
        if concurrent:
            futures = [cluster.submit(p, tenant=t) for t, p in stream]
            completions = [f.result() for f in futures]
        else:
            completions = [cluster.complete(p, tenant=t) for t, p in stream]
    finally:
        cluster.close()
    return completions, cluster


def _texts(completions):
    return [completion.text for completion in completions]


def test_cluster_matches_single_shard_reference():
    prompts = [f"Question: what is {i} squared?" for i in range(15)]
    stream = [(f"t{i % 3}", p) for i, p in enumerate(prompts + prompts[:8] + prompts)]
    # Serial: similarity tiers included — the scatter-merge is probe-for-
    # probe identical to the single cache, so augment rewrites match too.
    reference, _ = _run_cluster(1, stream)
    for n_shards in (2, 4):
        assert _texts(_run_cluster(n_shards, stream)[0]) == _texts(reference)
    # Concurrent: exact-match mode. Cross-key similarity hits depend on
    # which keys are in flight simultaneously (true of any cache shared by
    # parallel workers, one shard or eight), so the concurrency invariant
    # is gated where hit patterns are key-local.
    exact = (1.0, 1.0)
    concurrent_reference, _ = _run_cluster(1, stream, thresholds=exact)
    reference_costs = {}
    for (tenant, _prompt), completion in zip(stream, concurrent_reference):
        reference_costs.setdefault(tenant, []).append(completion.cost)
    for n_shards in (2, 4):
        completions, cluster = _run_cluster(
            n_shards, stream, concurrent=True, thresholds=exact
        )
        assert _texts(completions) == _texts(concurrent_reference)
        # No budget leakage: every tenant's ledger is its own reference
        # spend, and the tenants together are billed what the cluster spent.
        # fsum, because shard workers add to a ledger in no fixed order.
        assert cluster.tenants() == sorted(reference_costs)
        for tenant, costs in reference_costs.items():
            assert abs(cluster.spent_usd(tenant) - math.fsum(costs)) <= 1e-9, tenant
        total = math.fsum(cluster.spent_usd(t) for t in reference_costs)
        assert abs(total - cluster.stats.cost_usd) <= 1e-9


class _BarrierProvider:
    """Answers only once a second call is in flight: two calls dispatched
    one after the other break the barrier instead of completing."""

    def __init__(self, barrier):
        self.barrier = barrier
        self.inner = make_client()

    def complete(self, prompt, model=None):
        self.barrier.wait()
        return self.inner.complete(prompt, model=model)


def test_shards_dispatch_concurrently():
    # Clock-free scale-out check: one request on each of two shards must be
    # in the provider at the same time, or BrokenBarrierError surfaces
    # through the futures.
    barrier = threading.Barrier(2, timeout=5)
    cluster = ServingCluster(lambda shard: _BarrierProvider(barrier), n_shards=2)
    try:
        by_shard = {}
        for i in itertools.count():
            prompt = f"Question: overlap {i}?"
            by_shard.setdefault(cluster.router.route_request("acme", prompt), prompt)
            if len(by_shard) == 2:
                break
        futures = [cluster.submit(prompt, tenant="acme") for prompt in by_shard.values()]
        assert all(future.result(timeout=10).text for future in futures)
    finally:
        cluster.close()


def test_requests_spread_across_shards():
    cluster = ServingCluster(lambda shard: make_client(), n_shards=4)
    try:
        for i in range(40):
            cluster.complete(f"Question: spread {i}?", tenant=f"t{i % 2}")
        assert sum(cluster.requests_by_shard.values()) == 40
        assert sum(1 for n in cluster.requests_by_shard.values() if n > 0) >= 3
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Tenant isolation (all eviction policies, with and without the gate)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_tenants_are_isolated_without_a_gate(policy):
    assert isolation_gate() is None  # the default is no sharing at all
    sharded = ShardedSemanticCache(
        ClusterRouter(["s0", "s1", "s2"]), tenant_capacity=64, policy=policy
    )
    for i in range(10):
        sharded.put("alpha", f"Question: secret fact {i}?", f"classified answer {i}")
    # exact and near-duplicate probes from another tenant must all miss
    for i in range(10):
        assert sharded.lookup("beta", f"Question: secret fact {i}?").tier == "miss"
        assert sharded.lookup("beta", f"Question: secret fact {i}? please").tier == "miss"
    # and probing never created state in alpha's partitions for beta
    assert sharded.entries_of("beta") == {}
    assert len(sharded.entries_of("alpha")) == 10


@pytest.mark.parametrize("policy", POLICIES)
def test_gate_allows_reads_without_mutating_the_owner(policy):
    gate = CacheSharingGate([("alpha", "beta")], epsilon_per_share=0.1)
    sharded = ShardedSemanticCache(
        ClusterRouter(["s0", "s1"]), tenant_capacity=64, policy=policy, sharing=gate
    )
    sharded.put("alpha", "Question: shared fact?", "shared answer", cost=0.02)
    owner_entry = sharded.entries_of("alpha")["Question: shared fact?"]
    hits_before = owner_entry.reuse_hits
    found = sharded.lookup("beta", "Question: shared fact?")
    assert found.tier == "reuse" and found.shared
    assert found.owner_tenant == "alpha"
    assert found.entry.response == "shared answer"
    # read-only: the owner's entry and stats are untouched
    assert owner_entry.reuse_hits == hits_before
    assert sharded.stats_for("alpha").lookups == 0
    assert gate.ledger() == {"beta": {"alpha": 1}}
    # an unrelated tenant still sees nothing
    assert sharded.lookup("gamma", "Question: shared fact?").tier == "miss"


@pytest.mark.parametrize("policy", POLICIES)
def test_gate_closes_when_epsilon_budget_is_spent(policy):
    gate = CacheSharingGate(
        [("alpha", "beta")], epsilon_per_share=0.1, epsilon_budget=0.2
    )
    sharded = ShardedSemanticCache(
        ClusterRouter(["s0", "s1"]), tenant_capacity=64, policy=policy, sharing=gate
    )
    for i in range(4):
        sharded.put("alpha", f"Question: metered fact {i}?", f"answer {i}")
    tiers = [
        sharded.lookup("beta", f"Question: metered fact {i}?").tier for i in range(4)
    ]
    assert tiers == ["reuse", "reuse", "miss", "miss"]  # 2 shares fit eps=0.2
    assert gate.total_shares() == 2
    assert gate.denied_budget >= 1
    assert gate.epsilon_spent() == pytest.approx(0.2)


def test_gate_rejects_malformed_groups():
    with pytest.raises(ValueError):
        CacheSharingGate([("solo",)])  # a group of one shares with nobody
    with pytest.raises(ValueError):
        CacheSharingGate([("a", "b"), ("b", "c")])  # no tenant in two groups
    gate = CacheSharingGate([("a", "b")])
    assert not gate.allows("a", "a")  # self-serving is not sharing
    assert not gate.allows("a", "outsider")


def test_gate_epsilon_is_the_running_sum_of_its_shares():
    gate = CacheSharingGate([("a", "b")], epsilon_per_share=0.1)
    spent = 0.0
    for _ in range(30):
        gate.record_share("b", "a")
        spent += 0.1  # a left fold, as sum() adds before Python 3.12
        assert gate.epsilon_spent() == spent
    assert gate.total_shares() == 30


@pytest.mark.parametrize(
    "epsilon, budget", [(0.1, 1.0), (0.1, 0.3), (0.3, 0.9), (0.07, 0.7), (0.25, 1.0)]
)
def test_gate_denies_at_the_share_count_of_an_accountant(epsilon, budget):
    # The reference is one PrivacyAccountant record per share, summed
    # again before every probe.
    accountant = PrivacyAccountant()
    while accountant.basic_composition()[0] + epsilon <= budget + 1e-12:
        accountant.record(epsilon)
    gate = CacheSharingGate([("a", "b")], epsilon_per_share=epsilon, epsilon_budget=budget)
    while gate.allows("b", "a"):
        gate.record_share("b", "a")
    assert gate.total_shares() == len(accountant.spent)
    assert gate.denied_budget == 1


# ---------------------------------------------------------------------------
# Budgets and quotas
# ---------------------------------------------------------------------------


def test_quota_rejects_excess_requests():
    cluster = ServingCluster(
        lambda shard: make_client(),
        n_shards=2,
        policies={"small": TenantPolicy(max_requests=3)},
    )
    try:
        for i in range(3):
            cluster.complete(f"Question: {i}?", tenant="small")
        with pytest.raises(QuotaExceededError):
            cluster.complete("Question: one more?", tenant="small")
        # other tenants are unaffected
        cluster.complete("Question: fine?", tenant="big")
        tenancy = cluster.snapshot()["tenancy"]
        assert tenancy["small"]["rejections"] == 1
        assert tenancy["small"]["requests"] == 3
        assert tenancy["small"]["quota"] == 3
        assert tenancy["big"]["rejections"] == 0
    finally:
        cluster.close()


def test_budget_stops_llm_spend_but_not_cache_hits():
    cluster = ServingCluster(lambda shard: make_client(), n_shards=2)
    try:
        cluster.set_policy("capped", TenantPolicy(budget_usd=1e-9))
        first = cluster.complete("Question: the only paid call?", tenant="capped")
        assert first.cost > 0
        with pytest.raises(BudgetExceededError):
            cluster.complete("Question: a different prompt?", tenant="capped")
        # the exact repeat is served from cache — free, so still allowed
        again = cluster.complete("Question: the only paid call?", tenant="capped")
        assert again.cost == 0.0
        assert again.text == first.text
        assert cluster.spent_usd("capped") == pytest.approx(first.cost)
        snap = cluster.snapshot()
        assert snap["tenancy"]["capped"]["rejections"] == 1
    finally:
        cluster.close()


def test_budgets_are_charged_to_the_right_tenant():
    cluster = ServingCluster(lambda shard: make_client(), n_shards=4)
    try:
        for i in range(6):
            cluster.complete(f"Question: alpha {i}?", tenant="alpha")
        beta_before = cluster.spent_usd("beta")
        assert beta_before == 0.0
        cluster.complete("Question: beta 0?", tenant="beta")
        assert cluster.spent_usd("beta") > 0
        total = sum(cluster.spent_usd(t) for t in cluster.tenants())
        assert total == pytest.approx(cluster.stats.cost_usd)
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Per-tenant stats namespaces
# ---------------------------------------------------------------------------


def test_snapshot_carries_tenant_namespaces():
    cluster = ServingCluster(lambda shard: make_client(), n_shards=2)
    try:
        cluster.complete("Question: ns?", tenant="acme")
        cluster.complete("Question: ns?", tenant="acme")  # cache hit
        snap = cluster.stats.snapshot()
        assert snap["tenants"]["acme"]["cache"]["lookups"] == 2
        assert snap["tenants"]["acme"]["cache"]["reuse_hits"] == 1
        assert snap["tenants"]["acme"]["llm"]["calls"] == 1
        # a namespace-free ServiceStats snapshot has no tenants key at all
        assert "tenants" not in ServiceStats().snapshot()
    finally:
        cluster.close()


def test_constructor_policies_publish_their_limit_before_any_call():
    # Regression: a limit passed through policies= reached the namespace
    # only with the first paid call, so a tenant rejected before one
    # reported no limit at all.
    cluster = ServingCluster(
        lambda shard: make_client(),
        n_shards=2,
        policies={"small": TenantPolicy(budget_usd=0.0)},
    )
    try:
        assert cluster.stats.snapshot()["tenants"]["small"]["budget"]["limit_usd"] == 0.0
        with pytest.raises(BudgetExceededError):
            cluster.complete("Question: anything?", tenant="small")
        budget = cluster.stats.snapshot()["tenants"]["small"]["budget"]
        assert budget["limit_usd"] == 0.0
        assert budget["rejections"] == 1
        assert cluster.snapshot()["tenancy"]["small"]["budget_usd"] == 0.0
    finally:
        cluster.close()


def test_tenancy_is_read_from_the_namespaces():
    cluster = ServingCluster(
        lambda shard: make_client(),
        n_shards=2,
        policies={"acme": TenantPolicy(budget_usd=5.0, max_requests=10)},
    )
    try:
        cluster.complete("Question: paid?", tenant="acme")
        cluster.complete("Question: paid?", tenant="acme")  # reuse hit
        tenancy = cluster.snapshot()["tenancy"]["acme"]
        budget = cluster.stats.snapshot()["tenants"]["acme"]["budget"]
        assert tenancy["requests"] == budget["requests"] == 2
        assert tenancy["cache_hits"] == 1
        assert tenancy["llm_calls"] == 1
        assert tenancy["spent_usd"] == budget["spent_usd"] > 0
        assert cluster.spent_usd("acme") == cluster.stats.tenant("acme").budget_spent_usd
    finally:
        cluster.close()


def test_cluster_snapshot_and_describe():
    gate = CacheSharingGate([("a", "b")])
    cluster = ServingCluster(lambda shard: make_client(), n_shards=2, sharing=gate)
    try:
        cluster.complete("Question: shape?", tenant="a")
        snap = cluster.snapshot()
        assert set(snap) >= {"stats", "tenancy", "requests_by_shard", "router", "sharing"}
        assert snap["tenancy"]["a"]["requests"] == 1
        assert "ring(2 shards" in cluster.describe()
        assert "sharded-cache" in cluster.describe()
        assert "cache" in cluster.report()
    finally:
        cluster.close()
