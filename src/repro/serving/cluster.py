"""Sharded multi-tenant serving cluster.

One :class:`~repro.serving.stack.ServingStack` serves one logical client;
this module is the scale-out tier the LLM×DATA framing asks for — serving
as a shared, multi-user database-style workload:

* :class:`ClusterRouter` — a deterministic consistent-hash ring with
  virtual nodes, fixed at construction. Routing is a pure function of the
  shard list, so two routers built from one list agree on every key, and
  the rings of two lists that differ by one shard disagree on only ~K/N
  keys (the classic ring property; the hypothesis suite pins it).
* :class:`ShardedSemanticCache` — the semantic cache partitioned across
  shards. Each shard owns its entries and its flat vector index, sized
  to the shard's share of the tenant's capacity; the router key is
  ``tenant|prompt-key``. Tenants are hard-partitioned: a probe scatters
  over the *probing tenant's* partitions only, merges per-shard winners
  by (similarity, global insertion order) — provably the same winner an
  unsharded per-tenant cache would pick — and applies exactly one hit to
  the winning partition. Cross-tenant reads happen only through a
  :class:`~repro.core.privacy.CacheSharingGate`, read-only, and never
  mutate the owner's cache state.
* :class:`ServingCluster` — N stack replicas behind the router, one
  single-thread :class:`~concurrent.futures.ThreadPoolExecutor` per shard
  (requests for one key always land on one shard, so per-key order is
  preserved while shards overlap), per-tenant
  budgets/quotas enforced at the front door, and per-tenant
  :class:`~repro.serving.stats.ServiceStats` namespaces threaded through
  ``snapshot()``/``report()``.

Determinism: completions are pure functions of (prompt, model, seed) and
every replica is built by the same factory, so a cluster at any shard
count serves byte-identical completions to the single-stack (1-shard)
reference on the same request stream — as long as the workload's semantic
matches stay within a key (exact repeats; ``tests/serving/test_cluster.py``
asserts it, serial and concurrent).

>>> from repro.serving.cluster import ServingCluster, TenantPolicy
>>> cluster = ServingCluster(n_shards=4)
>>> cluster.set_policy("acme", TenantPolicy(budget_usd=1.0))
>>> completion = cluster.complete("Question: What is 2+2?", tenant="acme")
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import CacheEntry, CacheStats, EvictionPolicy, SemanticCache
from repro.core.privacy.sharing import CacheSharingGate
from repro.errors import BudgetExceededError, QuotaExceededError, SchedulerClosedError
from repro.llm.client import Completion
from repro.llm.embeddings import EmbeddingModel
from repro.llm.provider import CompletionProvider, make_client
from repro.serving.middleware import augmented_prompt, cached_completion, counted_probe
from repro.serving.stack import ServingStack, build_stack
from repro.serving.stats import ServiceStats

DEFAULT_TENANT = "default"
VNODES = 64  # ring points per shard
_SEQ_INF = float("inf")


def _stable_hash(text: str) -> int:
    """64-bit stable hash (blake2b) — identical across processes/runs,
    unlike Python's salted ``hash()``."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ClusterRouter:
    """Consistent-hash request router with virtual nodes.

    Each shard contributes :data:`VNODES` points on a 64-bit ring; a key
    is owned by the first shard point clockwise of its hash. The ring is
    fixed at construction. Because a shard's points depend only on its
    own name, the ring built from one more shard differs only in that
    shard's arcs, so only the keys falling into them (expected K/N) have
    another owner.
    """

    def __init__(self, shards: Sequence[str]) -> None:
        self.shards: Tuple[str, ...] = tuple(dict.fromkeys(shards))
        if not self.shards:
            raise ValueError("need at least one shard")
        if len(self.shards) != len(shards):
            raise ValueError("shard names must be unique")
        # (point, shard), sorted
        self._ring: List[Tuple[int, str]] = sorted(
            (_stable_hash(f"{shard}#vnode{i}"), shard)
            for shard in self.shards
            for i in range(VNODES)
        )

    def route(self, key: str) -> str:
        """The shard owning ``key`` (first ring point clockwise)."""
        point = _stable_hash(key)
        index = bisect.bisect_right(self._ring, (point, "\uffff"))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def route_request(self, tenant: str, key: str) -> str:
        """Route a tenant-scoped request key (``tenant|key``)."""
        return self.route(f"{tenant}|{key}")

    def describe(self) -> str:
        return f"ring({len(self.shards)} shards x {VNODES} vnodes)"


# ===========================================================================
# Sharded semantic cache
# ===========================================================================


@dataclass
class ClusterLookup:
    """Result of one sharded, tenant-scoped cache probe."""

    tier: str  # 'reuse' | 'augment' | 'miss'
    entry: Optional[CacheEntry] = None
    similarity: float = 0.0
    shard: Optional[str] = None
    owner_tenant: Optional[str] = None
    shared: bool = False  # served from another tenant's cache via the gate


class ShardedSemanticCache:
    """A :class:`~repro.core.cache.SemanticCache` partitioned over shards.

    Entries are owned by ``router.route(tenant|key)``; each (shard,
    tenant) pair holds an independent :class:`SemanticCache` partition
    with room for the shard's share of ``tenant_capacity`` (rounded up).
    All partitions share one embedder, so a key is feature-hashed once
    cluster-wide.

    A probe scatters read-only (:meth:`SemanticCache.peek`) over the
    probing tenant's partitions and merges the per-shard winners by
    ``(similarity desc, global insertion seq asc)``. Within a shard,
    ``search_top1`` already returns the first-inserted of any equal-top
    group, and global order restricted to a shard preserves relative
    order — so the merged winner is exactly the entry a single
    per-tenant cache holding all the shards' entries would have matched.
    The winning partition then gets exactly one :meth:`touch_hit`.

    Isolation: a tenant's probe never reads another tenant's partitions
    unless a :class:`~repro.core.privacy.CacheSharingGate` explicitly
    allows the pair — and even then the read is via ``peek``, never
    mutating the owner's entries, clocks or stats.
    """

    def __init__(
        self,
        router: ClusterRouter,
        *,
        tenant_capacity: int = 4096,
        reuse_threshold: float = 0.95,
        augment_threshold: float = 0.75,
        policy: EvictionPolicy = EvictionPolicy.WEIGHTED,
        lrfu_lambda: float = 0.1,
        sharing: Optional[CacheSharingGate] = None,
    ) -> None:
        self.router = router
        self.reuse_threshold = reuse_threshold
        self.augment_threshold = augment_threshold
        self.policy = policy
        self.lrfu_lambda = lrfu_lambda
        self.sharing = sharing
        if tenant_capacity <= 0:
            raise ValueError("tenant_capacity must be positive")
        self.total_capacity = tenant_capacity
        self.partition_capacity = -(-tenant_capacity // len(router.shards))
        self.embedder = EmbeddingModel()
        # shard -> tenant -> partition cache (partitions created on first put)
        self._partitions: Dict[str, Dict[str, SemanticCache]] = {
            shard: {} for shard in router.shards
        }
        # Global per-tenant insertion sequence, for cross-shard tie-breaks.
        self._seq: Dict[str, Dict[str, int]] = {}
        self._next_seq: Dict[str, int] = {}
        self.tenant_stats: Dict[str, CacheStats] = {}
        self.shared_hits: Dict[str, int] = {}
        self.shared_cost_saved: Dict[str, float] = {}
        # One lock over partition/seq/stats maps *and* each full probe or
        # put: scatter-merge plus the single touch_hit must be atomic so a
        # concurrent eviction can't invalidate the merged winner.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return sum(
                len(cache)
                for tenants in self._partitions.values()
                for cache in tenants.values()
            )

    # --------------------------------------------------------- partitions

    def _partition(
        self, shard: str, tenant: str, create: bool = False
    ) -> Optional[SemanticCache]:
        tenants = self._partitions[shard]
        cache = tenants.get(tenant)
        if cache is None and create:
            cache = SemanticCache(
                capacity=self.partition_capacity,
                reuse_threshold=self.reuse_threshold,
                augment_threshold=self.augment_threshold,
                policy=self.policy,
                embedding_dim=self.embedder.dim,
                lrfu_lambda=self.lrfu_lambda,
            )
            cache.embedder = self.embedder  # one feature-hash memo cluster-wide
            tenants[tenant] = cache
        return cache

    def partitions_of(self, tenant: str) -> List[Tuple[str, SemanticCache]]:
        """The tenant's live partitions in shard registration order."""
        with self._lock:
            return [
                (shard, self._partitions[shard][tenant])
                for shard in self.router.shards
                if tenant in self._partitions[shard]
            ]

    def stats_for(self, tenant: str) -> CacheStats:
        with self._lock:
            return self.tenant_stats.setdefault(tenant, CacheStats())

    def entries_of(self, tenant: str) -> Dict[str, CacheEntry]:
        """All live entries of one tenant, keyed by cache key."""
        out: Dict[str, CacheEntry] = {}
        for _shard, cache in self.partitions_of(tenant):
            out.update(cache.entries)
        return out

    # ------------------------------------------------------------- probes

    def _scatter_best(
        self, tenant: str, key: str
    ) -> Optional[Tuple[float, str, SemanticCache, CacheEntry]]:
        """Best (similarity, shard, partition, entry) across the tenant's
        partitions, merged with the single-cache tie-break rule. Callers
        hold the sharded-cache lock."""
        seq_map = self._seq.get(tenant, {})
        best: Optional[Tuple[float, float, str, SemanticCache, CacheEntry]] = None
        for shard, cache in (
            (shard, self._partitions[shard][tenant])
            for shard in self.router.shards
            if tenant in self._partitions[shard]
        ):
            found = cache.peek(key)
            if found.entry is None:
                continue
            seq = seq_map.get(found.entry.key, _SEQ_INF)
            if (
                best is None
                or found.similarity > best[0]
                or (found.similarity == best[0] and seq < best[1])
            ):
                best = (found.similarity, seq, shard, cache, found.entry)
        if best is None:
            return None
        similarity, _seq, shard, cache, entry = best
        return similarity, shard, cache, entry

    def lookup(self, tenant: str, key: str) -> ClusterLookup:
        """Tenant-scoped probe; applies hit bookkeeping to the winner."""
        with self._lock:
            stats = self.tenant_stats.setdefault(tenant, CacheStats())
            stats.lookups += 1
            # Exact requery: the single-cache rule returns the key's own
            # entry before any similarity scan, and a key can live only on
            # the shard that owns it.
            shard = self.router.route_request(tenant, key)
            cache = self._partitions[shard].get(tenant)
            if cache is not None and key in cache:
                entry = cache.touch_hit(key, "reuse")
                stats.reuse_hits += 1
                stats.cost_saved += entry.cost_of_miss
                return ClusterLookup("reuse", entry, 1.0, shard, tenant)
            best = self._scatter_best(tenant, key)
            if best is not None:
                similarity, shard, cache, entry = best
                tier = "reuse" if similarity >= self.reuse_threshold else "augment"
                entry = cache.touch_hit(entry.key, tier)
                if tier == "reuse":
                    stats.reuse_hits += 1
                    stats.cost_saved += entry.cost_of_miss
                else:
                    stats.augment_hits += 1
                return ClusterLookup(tier, entry, similarity, shard, tenant)
            stats.misses += 1
            return self._shared_lookup(tenant, key)

    def _shared_lookup(self, tenant: str, key: str) -> ClusterLookup:
        """Cross-tenant fallback after an own-cache miss (lock held).

        Only *reuse*-tier matches are served across tenants — an augment
        hit would splice the owner's (query, answer) pair into the
        consumer's prompt, a much broader disclosure than replaying one
        vetted answer. The owner's cache is read via ``peek`` only."""
        gate = self.sharing
        if gate is None:
            return ClusterLookup("miss")
        for owner in gate.peers(tenant):
            if not gate.allows(tenant, owner):
                continue
            best = self._scatter_best(owner, key)
            if best is None:
                continue
            similarity, shard, _cache, entry = best
            if similarity < self.reuse_threshold:
                continue
            gate.record_share(tenant, owner)
            self.shared_hits[tenant] = self.shared_hits.get(tenant, 0) + 1
            self.shared_cost_saved[tenant] = (
                self.shared_cost_saved.get(tenant, 0.0) + entry.cost_of_miss
            )
            return ClusterLookup(
                "reuse", entry, similarity, shard, owner_tenant=owner, shared=True
            )
        return ClusterLookup("miss")

    # ------------------------------------------------------------- updates

    def put(
        self,
        tenant: str,
        key: str,
        response: str,
        kind: str = "original",
        cost: float = 0.0,
        completion: Optional[Completion] = None,
    ) -> Optional[CacheEntry]:
        """Insert (or refresh) an entry in the owning shard's partition;
        ``completion`` rides on the entry as in :meth:`SemanticCache.put`."""
        with self._lock:
            shard = self.router.route_request(tenant, key)
            cache = self._partition(shard, tenant, create=True)
            if key in cache:
                return cache.put(key, response, kind=kind, cost=cost, completion=completion)
            seq_map = self._seq.setdefault(tenant, {})
            seq_map[key] = self._next_seq.get(tenant, 0)
            self._next_seq[tenant] = seq_map[key] + 1
            # The seq map outlives evicted entries (ties only consult live
            # keys); prune it once it clearly outgrows the live set.
            if len(seq_map) > 4 * self.total_capacity:
                live = set()
                for other in self.router.shards:
                    partition = self._partitions[other].get(tenant)
                    if partition is not None:
                        live.update(partition.entries)
                self._seq[tenant] = {k: v for k, v in seq_map.items() if k in live}
            return cache.put(key, response, kind=kind, cost=cost, completion=completion)

    def describe(self) -> str:
        return (
            f"sharded-cache[{self.router.describe()}, "
            f"{len(self.router.shards)} x FlatIndex(dim={self.embedder.dim}, "
            f"~{self.partition_capacity} rows/partition), "
            f"{self.sharing.describe() if self.sharing else 'sharing: closed'}]"
        )


# ===========================================================================
# Tenant policies
# ===========================================================================


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant governance: a dollar budget and a request quota.

    ``budget_usd`` caps the tenant's *LLM spend* (cache hits are free and
    keep flowing after exhaustion, like
    :class:`~repro.serving.middleware.BudgetMiddleware` below the cache);
    ``max_requests`` caps total requests accepted, hits included."""

    budget_usd: Optional[float] = None
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.budget_usd is not None and self.budget_usd < 0:
            raise ValueError("budget_usd must be non-negative")
        if self.max_requests is not None and self.max_requests < 0:
            raise ValueError("max_requests must be non-negative")


# ===========================================================================
# The cluster
# ===========================================================================


class ServingCluster:
    """N serving-stack replicas behind a consistent-hash router.

    ``provider_factory(shard_name)`` builds each replica's terminal
    provider; every factory call must construct an identically-seeded
    provider for the cluster to stay byte-equivalent to its single-shard
    reference. Shards are named ``shard-0`` .. ``shard-{n-1}``, and a
    request's prompt is both its routing key and its cache key. The
    semantic cache is cluster-level and sharded
    (:class:`ShardedSemanticCache`) — replicas themselves are built
    *without* a cache layer so hit accounting lives in exactly one place.

    Multi-tenancy: every request names a tenant. The front door enforces
    the tenant's :class:`TenantPolicy` (quota on accept, budget before
    dispatch) against the tenant's :class:`ServiceStats` namespace
    (``stats.tenant(name)``), which is the only record of its accepted
    requests, rejections and spend; ``snapshot()["tenancy"]`` and
    ``stats.snapshot()["tenants"]`` are both read from it.
    """

    def __init__(
        self,
        provider_factory: Optional[Callable[[str], CompletionProvider]] = None,
        *,
        n_shards: int = 2,
        tenant_capacity: int = 4096,
        reuse_threshold: float = 0.95,
        augment_threshold: float = 0.75,
        eviction_policy: EvictionPolicy = EvictionPolicy.WEIGHTED,
        sharing: Optional[CacheSharingGate] = None,
        policies: Optional[Dict[str, TenantPolicy]] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.router = ClusterRouter([f"shard-{i}" for i in range(n_shards)])
        self.stats = ServiceStats()
        self.provider_factory = (
            provider_factory if provider_factory is not None else (lambda shard: make_client())
        )
        self.stacks: Dict[str, ServingStack] = {
            shard: build_stack(self.provider_factory(shard), stats=self.stats)
            for shard in self.router.shards
        }
        self.cache = ShardedSemanticCache(
            self.router,
            tenant_capacity=tenant_capacity,
            reuse_threshold=reuse_threshold,
            augment_threshold=augment_threshold,
            policy=eviction_policy,
            sharing=sharing,
        )
        self.default_policy = TenantPolicy()
        self._policies: Dict[str, TenantPolicy] = {}
        self.requests_by_shard: Dict[str, int] = {shard: 0 for shard in self.router.shards}
        self._lock = threading.RLock()
        # One single-thread executor per shard; its thread starts on the
        # shard's first submit.
        self._executors: Dict[str, ThreadPoolExecutor] = {
            shard: ThreadPoolExecutor(1, thread_name_prefix=shard)
            for shard in self.router.shards
        }
        self._closed = False
        for tenant, policy in (policies or {}).items():
            self.set_policy(tenant, policy)

    # ----------------------------------------------------------- tenancy

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        with self._lock:
            self._policies[tenant] = policy
        tstats = self.stats.tenant(tenant)
        with tstats.lock:
            tstats.budget_limit_usd = policy.budget_usd

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, self.default_policy)

    def spent_usd(self, tenant: str) -> float:
        return self.stats.tenant(tenant).budget_spent_usd

    def tenants(self) -> List[str]:
        return self.stats.tenant_names()

    # ----------------------------------------------------------- serving

    def _admit(self, tenant: str, tstats: ServiceStats) -> None:
        """Quota check + request accounting (the front door)."""
        quota = self.policy_for(tenant).max_requests
        with tstats.lock:
            if quota is not None and tstats.admitted_requests >= quota:
                tstats.quota_rejections += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} quota of {quota} requests exhausted"
                )
            tstats.admitted_requests += 1

    def _serve(self, prompt: str, tenant: str, model: Optional[str]) -> Completion:
        tstats = self.stats.tenant(tenant)
        self._admit(tenant, tstats)
        budget = self.policy_for(tenant).budget_usd
        effective_prompt = prompt
        found = counted_probe(self.cache.lookup, (tenant, prompt), (self.stats, tstats))
        if found.tier == "reuse" and found.entry is not None:
            marker: Dict[str, object] = {
                "tier": "reuse",
                "similarity": round(found.similarity, 6),
            }
            if found.shared:
                marker["shared_from"] = found.owner_tenant
            return cached_completion(
                found.entry.response, {"serving.cache": marker}, original=found.entry.completion
            )
        if found.tier == "augment" and found.entry is not None:
            effective_prompt = augmented_prompt(found.entry, prompt)
        if budget is not None:
            with tstats.lock:
                spent = tstats.budget_spent_usd
                if spent >= budget:
                    tstats.budget_rejections += 1
                    raise BudgetExceededError(
                        f"tenant {tenant!r} budget ${budget:.4f} "
                        f"exhausted (spent ${spent:.4f})"
                    )
        shard = self.router.route_request(tenant, prompt)
        completion = self.stacks[shard].complete(effective_prompt, model=model)
        with self._lock:
            self.requests_by_shard[shard] += 1
        with tstats.lock:
            tstats.budget_spent_usd += completion.cost
            tstats.record_llm_call(
                completion.model, completion.usage, completion.cost, completion.latency_ms
            )
        put_start = time.perf_counter()
        self.cache.put(tenant, prompt, completion.text, cost=completion.cost, completion=completion)
        put_ms = (time.perf_counter() - put_start) * 1000.0
        for section in (self.stats, tstats):
            with section.lock:
                section.cache_put_ms += put_ms
        return completion

    def complete(
        self, prompt: str, model: Optional[str] = None, *, tenant: Optional[str] = None
    ) -> Completion:
        """Serve one request inline on the calling thread (serial mode)."""
        return self._serve(prompt, tenant or DEFAULT_TENANT, model)

    # -------------------------------------------------------- concurrency

    def submit(
        self, prompt: str, model: Optional[str] = None, *, tenant: Optional[str] = None
    ) -> "Future[Completion]":
        """Enqueue one request on its shard's dispatch thread
        (``tenant=None`` is the default tenant). Raises
        :class:`~repro.errors.SchedulerClosedError` once closed.

        Per-key order is preserved cluster-wide: the router sends every
        request for a key to the same shard, and each shard's executor has
        one thread serving its queue in submission order."""
        tenant = tenant or DEFAULT_TENANT
        shard = self.router.route_request(tenant, prompt)
        # Submitted under the lock that close() takes before shutting the
        # executors down, so a submit never races the shutdown.
        with self._lock:
            if self._closed:
                raise SchedulerClosedError("cluster is closed")
            return self._executors[shard].submit(self._serve, prompt, tenant, model)

    @property
    def concurrency(self) -> Optional[int]:
        """None: each request runs on its key's shard worker, so requests
        forwarded together can land on one shard while others idle, and no
        window both keeps every shard busy and every shard queue empty."""
        return None

    def close(self) -> None:
        """Stop the shard executors after draining them (idempotent)."""
        with self._lock:
            self._closed = True
        for executor in self._executors.values():
            executor.shutdown(wait=True)

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- reporting

    def describe(self) -> str:
        shard = self.router.shards[0]
        return (
            f"{self.router.describe()} -> {len(self.stacks)} x "
            f"[{self.stacks[shard].describe()}] | {self.cache.describe()}"
        )

    def report(self) -> str:
        return self.stats.render()

    def snapshot(self) -> Dict[str, object]:
        """Cluster snapshot: shared stack stats (with tenant namespaces)
        plus routing/tenancy dimensions the stacks can't see."""
        tenancy = {}
        for tenant in self.tenants():
            tstats = self.stats.tenant(tenant)
            with tstats.lock:
                tenancy[tenant] = {
                    "requests": tstats.admitted_requests,
                    "llm_calls": tstats.llm_calls,
                    "cache_hits": tstats.cache_reuse_hits,
                    "spent_usd": round(tstats.budget_spent_usd, 6),
                    "rejections": tstats.budget_rejections + tstats.quota_rejections,
                    "budget_usd": self.policy_for(tenant).budget_usd,
                    "quota": self.policy_for(tenant).max_requests,
                }
        with self._lock:
            by_shard = dict(sorted(self.requests_by_shard.items()))
        out: Dict[str, object] = {
            "stats": self.stats.snapshot(),
            "tenancy": tenancy,
            "requests_by_shard": by_shard,
            "router": self.router.describe(),
        }
        if self.cache.sharing is not None:
            gate = self.cache.sharing
            out["sharing"] = {
                "ledger": gate.ledger(),
                "epsilon_spent": round(gate.epsilon_spent(), 6),
                "epsilon_budget": gate.epsilon_budget,
                "denied_budget": gate.denied_budget,
            }
        return out


__all__ = [
    "ClusterLookup",
    "ClusterRouter",
    "DEFAULT_TENANT",
    "ServingCluster",
    "ShardedSemanticCache",
    "TenantPolicy",
]
