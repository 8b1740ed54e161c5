"""The semantic LLM cache (Section III-C, Table III).

Differences from a conventional exact-match cache, following the paper:

* **Similarity matching** — queries are embedded; a cached entry hits when
  its cosine similarity to the new query clears a configurable threshold.
  With both thresholds at 1.0 the cache *is* an exact-match cache: hits
  are decided by key equality alone and no vector is ever computed,
  stored or searched.
* **Two hit tiers** — a *reuse* hit (similarity ≥ ``reuse_threshold``)
  returns the cached response without calling the LLM; an *augment* hit
  (similarity ≥ ``augment_threshold``) cannot be returned directly but the
  cached (query, response) pair is offered as an extra few-shot example for
  the new prompt. The two tiers carry different eviction weights, exactly
  the paper's case-(1)/case-(2) distinction.
* **Weighted eviction** — LRU and LFU are provided as baselines; the
  ``WEIGHTED`` policy scores entries by hit-type-weighted frequency with
  recency decay and evicts the lowest score.
* **Sub-query caching** — entries are tagged ``original`` or ``sub`` so the
  Table III Cache(O)/Cache(A) comparison can be reproduced.

Eviction needs no scan. Every insert, hit, refresh and restore pushes a
record into one lazily invalidated min-heap (:class:`_EvictionOrder`) keyed
so that the order does not change as the clock advances: ``(last_access,
key)`` for LRU, ``(hits, last_access, key)`` for LFU, and the log of the
decaying score with the clock term dropped for ``WEIGHTED`` and ``LRFU``.
A put into a full cache therefore costs O(log n), and the victim is still
the one the seed's ``min()`` over every entry's float score picks: the
candidates within a rounding band of the heap minimum are re-scored with
:meth:`CacheEntry.weighted_score` / :meth:`CacheEntry.lrfu_score`, and
entries old enough for that score to be subnormal or 0.0 — where the float
order is no longer the exact order — leave the heap for an explicit
underflow set that is scored the seed's way.

Similarity matching is backed by the :mod:`repro.vectordb` layer (GPTCache
style): a probe is one matrix reduction over a dense :class:`FlatIndex`
instead of a per-entry Python loop. The index is *exact* — probes return
bit-identical tiers and similarities to the original linear scan
(``benchmarks/bench_perf_hotpaths.py`` asserts this decision for
decision) — and it is flat at every capacity: the cache holds text
embeddings, which do not cluster, so no exact pruning beats one scan.
"""

from __future__ import annotations

import enum
import heapq
import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import cosine
from repro.llm.client import Completion, Usage
from repro.llm.embeddings import EmbeddingModel
from repro.vectordb import FlatIndex
from repro.vectordb.distance import Metric, scalar_similarity

REUSE_WEIGHT = 3.0  # case (1): no LLM call needed — most valuable
AUGMENT_WEIGHT = 1.0  # case (2): still calls the LLM
WEIGHTED_HALF_LIFE = 64  # ticks for a WEIGHTED score to halve


class EvictionPolicy(enum.Enum):
    LRU = "lru"
    LFU = "lfu"
    # LRFU (Lee et al., the paper's ref [77]): a spectrum subsuming LRU and
    # LFU via a decay parameter — see SemanticCache(lrfu_lambda=...).
    LRFU = "lrfu"
    WEIGHTED = "weighted"


@dataclass
class CacheEntry:
    """One cached (query, response) pair with usage statistics."""

    key: str
    # None while the entry sits in the cache's write-behind put buffer;
    # set (batched) by the first probe's flush. An exact-match cache
    # (both thresholds 1.0) never sets it.
    embedding: Optional[np.ndarray]
    response: str
    kind: str = "original"  # 'original' | 'sub'
    cost_of_miss: float = 0.0  # what the original call cost
    reuse_hits: int = 0
    augment_hits: int = 0
    last_access: int = 0
    inserted_at: int = 0
    crf: float = 0.0  # LRFU "combined recency and frequency" value
    crf_updated_at: int = 0
    # The completion whose text is ``response``, replayed in full by a
    # reuse hit; None when the writer had none (a bare ``put``).
    completion: Optional[Completion] = None

    def touch_lrfu(self, clock: int, lrfu_lambda: float) -> None:
        """Record one reference under LRFU: decay the CRF then add 1.

        ``lrfu_lambda`` in (0, 1]: values near 1 forget fast (≈ LRU),
        values near 0 never forget (≈ LFU)."""
        age = max(0, clock - self.crf_updated_at)
        self.crf = self.crf * ((1.0 - lrfu_lambda) ** age) + 1.0
        self.crf_updated_at = clock

    def lrfu_score(self, clock: int, lrfu_lambda: float) -> float:
        age = max(0, clock - self.crf_updated_at)
        return self.crf * ((1.0 - lrfu_lambda) ** age)

    def weighted_score(self, clock: int, half_life: int = WEIGHTED_HALF_LIFE) -> float:
        """Eviction score: hit-type-weighted frequency with recency decay."""
        age = max(0, clock - self.last_access)
        decay = 0.5 ** (age / half_life)
        base = REUSE_WEIGHT * self.reuse_hits + AUGMENT_WEIGHT * self.augment_hits
        return (base + 0.5) * decay

    # Every field a snapshot stores. The embedding is not one: it is a pure
    # function of the key, re-derived on load.
    _STATE_FIELDS = (
        "key",
        "response",
        "kind",
        "cost_of_miss",
        "reuse_hits",
        "augment_hits",
        "last_access",
        "inserted_at",
        "crf",
        "crf_updated_at",
    )

    def state_dict(self) -> Dict[str, object]:
        """The entry as plain JSON data; ``completion`` only when set."""
        data: Dict[str, object] = {name: getattr(self, name) for name in self._STATE_FIELDS}
        if self.completion is not None:
            data["completion"] = _completion_to_dict(self.completion)
        return data

    @classmethod
    def from_state(cls, data: Dict[str, object]) -> "CacheEntry":
        """An un-embedded entry from :meth:`state_dict` data."""
        completion = data.get("completion")
        return cls(
            embedding=None,
            completion=None if completion is None else _completion_from_dict(completion),
            **{name: data[name] for name in cls._STATE_FIELDS},
        )


def _completion_to_dict(completion: Completion) -> Dict[str, object]:
    """Serialize a completion (the one a cache entry replays on a reuse hit)."""
    return {
        "text": completion.text,
        "model": completion.model,
        "prompt_tokens": completion.usage.prompt_tokens,
        "completion_tokens": completion.usage.completion_tokens,
        "cost": completion.cost,
        "latency_ms": completion.latency_ms,
        "confidence": completion.confidence,
        "engine": completion.engine,
        "metadata": completion.metadata,
    }


def _completion_from_dict(data: Dict[str, object]) -> Completion:
    return Completion(
        text=data["text"],
        model=data["model"],
        usage=Usage(
            prompt_tokens=int(data["prompt_tokens"]),
            completion_tokens=int(data["completion_tokens"]),
        ),
        cost=float(data["cost"]),
        latency_ms=float(data["latency_ms"]),
        confidence=float(data["confidence"]),
        engine=data["engine"],
        metadata=dict(data["metadata"]),
    )


@dataclass
class CacheStats:
    """Aggregate cache statistics."""

    lookups: int = 0
    reuse_hits: int = 0
    augment_hits: int = 0
    misses: int = 0
    evictions: int = 0
    cost_saved: float = 0.0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.reuse_hits + self.augment_hits) / self.lookups


@dataclass
class CacheLookup:
    """Result of one cache probe."""

    tier: str  # 'reuse' | 'augment' | 'miss'
    entry: Optional[CacheEntry] = None
    similarity: float = 0.0


class AdmissionPredictor:
    """Predicts whether a candidate entry will be accessed again
    (Section III-C: "decide whether to cache ... or refrain from caching
    based on the likelihood of future access").

    TinyLFU-style doorkeeper: a bounded history of recent query embeddings.
    A query is predicted re-accessible when something similar has already
    been seen before (one-hit wonders have not), or when it is a sub-query
    (sub-queries are shared across originals by construction — the Fig 7
    overlap). The predictor is trained online by its own traffic.

    The history is a fixed ring-buffer matrix: recording an occurrence is
    one row write (no list shifting), and a similarity probe is one matrix
    reduction instead of a per-entry Python loop. Rows scoring within the
    float-reconciliation band of the threshold are re-checked with the
    scalar :func:`~repro._util.cosine`, so decisions are bit-identical to
    the original linear scan.
    """

    def __init__(
        self,
        history: int = 256,
        similarity_threshold: float = 0.92,
        admit_subqueries: bool = True,
        embedding_dim: int = 64,
    ) -> None:
        if history <= 0:
            raise ValueError("history must be positive")
        self.history = history
        self.similarity_threshold = similarity_threshold
        self.admit_subqueries = admit_subqueries
        self.embedder = EmbeddingModel(dim=embedding_dim)
        self._ring = np.zeros((history, embedding_dim), dtype=np.float64)
        self._ring_norms = np.zeros(history, dtype=np.float64)
        self._count = 0  # rows filled, saturates at history
        self._next = 0  # next row to overwrite
        # Guards the ring buffer and cursors. A half-written row (vector
        # stored, norm not yet) would let a probe divide by a stale norm;
        # the lock also keeps should_admit's decide-then-record atomic.
        # Embedding happens *outside* this lock — it is the expensive part.
        self._lock = threading.RLock()

    @property
    def _seen(self) -> List[np.ndarray]:
        """The recorded embeddings, oldest first (compatibility view)."""
        with self._lock:
            if self._count < self.history:
                rows = range(self._count)
            else:
                rows = [(self._next + i) % self.history for i in range(self.history)]
            return [self._ring[i].copy() for i in rows]

    def _observe_vec(self, vec: np.ndarray) -> None:
        row = self._next
        self._ring[row] = vec
        self._ring_norms[row] = float(np.linalg.norm(self._ring[row]))
        self._next = (row + 1) % self.history
        if self._count < self.history:
            self._count += 1

    def _seen_similar_vec(self, vec: np.ndarray) -> bool:
        if self._count == 0:
            return False
        ring = self._ring[: self._count]
        norms = self._ring_norms[: self._count]
        qn = float(np.linalg.norm(vec))
        denom = norms * qn
        dots = ring @ vec
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        threshold = self.similarity_threshold
        best = float(np.max(sims))
        if best < threshold - 1e-9:
            return False
        if best >= threshold + 1e-9:
            return True
        # Borderline rows: reconcile with the scalar cosine the original
        # linear scan computed, so the decision cannot drift by an ulp.
        for row in np.flatnonzero(sims >= threshold - 1e-9):
            if cosine(vec, self._ring[row]) >= threshold:
                return True
        return False

    def observe(self, query: str) -> None:
        """Record one query occurrence."""
        vec = self.embedder.embed(query)
        with self._lock:
            self._observe_vec(vec)

    def seen_similar(self, query: str) -> bool:
        vec = self.embedder.embed(query)
        with self._lock:
            return self._seen_similar_vec(vec)

    def should_admit(self, query: str, kind: str = "original") -> bool:
        """Admission decision; also records the occurrence.

        The query is embedded exactly once and the vector shared between
        the decision and the history write; decision and write are atomic
        under the predictor lock."""
        vec = self.embedder.embed(query)
        with self._lock:
            if self.admit_subqueries and kind == "sub":
                self._observe_vec(vec)
                return True
            admit = self._seen_similar_vec(vec)
            self._observe_vec(vec)
            return admit

    def state_dict(self) -> Dict[str, object]:
        """The configuration, the cursors and the filled ring rows."""
        with self._lock:
            return {
                "history": self.history,
                "similarity_threshold": self.similarity_threshold,
                "admit_subqueries": self.admit_subqueries,
                "embedding_dim": self.embedder.dim,
                "count": self._count,
                "next": self._next,
                "rows": self._ring[: self._count].tolist(),
            }

    def load_state(self, data: Dict[str, object]) -> None:
        """Replace the history with :meth:`state_dict` data taken at the
        same ``history`` and ``embedding_dim`` (anything else raises)."""
        if data["history"] != self.history or data["embedding_dim"] != self.embedder.dim:
            raise ValueError(
                "admission snapshot was taken with a different history/dim "
                f"({data['history']}/{data['embedding_dim']} vs "
                f"{self.history}/{self.embedder.dim})"
            )
        with self._lock:
            self._ring[:] = 0.0
            self._ring_norms[:] = 0.0
            for i, row in enumerate(data["rows"]):  # type: ignore[arg-type]
                self._ring[i] = row
                self._ring_norms[i] = float(np.linalg.norm(self._ring[i]))
            self._count = data["count"]
            self._next = data["next"]


@dataclass
class _BatchProbe:
    """Precomputed best-match snapshot for one announced batch of lookups.

    ``best`` maps each batch key to its snapshot winner (or None when the
    cache was empty), ``vectors`` to its embedding; ``log_pos`` and
    ``evictions`` pin the cache state the snapshot reflects so later
    lookups can merge (appends only) or fall back (anything else)."""

    best: Dict[str, Optional[Tuple[str, float]]]
    vectors: Dict[str, np.ndarray]
    log_pos: int
    evictions: int


# The heap key of a decaying policy (a log plus a clock term) and the seed's
# float score each carry a few ulps of rounding. Every entry whose seed
# score could tie or beat the heap minimum's lies within this band of it,
# with orders of magnitude to spare; distinct ticks sit 1/64 (WEIGHTED) or
# |ln(1-λ)| (LRFU) apart, so the band almost always holds one record.
_BAND_ABS = 1e-9
_BAND_REL = 2.0**-40
# While an entry's decay factor is at least this, its seed score is a
# normal float (the base is at least 0.5, the CRF at least 1), so the float
# order of two scores is their exact order up to a few ulps.
_NORMAL_DECAY = 2.0**-1021


def _first_age_below(decay: Callable[[int], float], floor: float) -> float:
    """The smallest age at which the non-increasing ``decay`` drops below
    ``floor`` (``decay(0)`` is 1.0); infinity if it never does."""
    hi = 1
    while decay(hi) >= floor:
        hi *= 2
        if hi > 2**62:
            return math.inf
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decay(mid) < floor:
            hi = mid
        else:
            lo = mid
    return hi


class _EvictionOrder:
    """The victim a full :class:`SemanticCache` evicts, found without a scan.

    One lazily invalidated min-heap of rank records ``(..., key)``, built
    from the cache's entries the first time it evicts (a cache below
    capacity never needs it; one that filled stays full). A record is live
    while it is its key's value in ``_fresh``: :meth:`push` (every insert,
    hit and refresh from then on) supersedes a key's record and
    :meth:`discard` drops the key, so stale records sink and are popped
    when they surface. The heap is rebuilt from ``_fresh`` once stale
    records outnumber live ones.

    LRU and LFU ranks are the seed's sort keys themselves. The decaying
    policies rank by the log of the score with the clock term dropped:
    ``log2(base + 0.5) + last_access / 64`` (WEIGHTED) and
    ``ln(crf) - crf_updated_at * ln(1 - λ)`` (LRFU) order entries as their
    exact scores do at every clock. The seed compares rounded floats,
    though, so :meth:`victim` re-scores each live record within the band of
    the heap minimum with the seed formula and takes the min by
    ``(score, key)``.

    That argument needs normal floats. ``_fresh`` is kept in push order,
    which is age order, so :meth:`_age` moves each entry whose decay factor
    has dropped below ``_NORMAL_DECAY`` (age ``_sub_age``) out of the heap
    into the underflow set: the *band* while its seed score is still
    computed, grouped by the parameter (base or CRF) that fixes the score
    at a given age, and the *zero* set once its decay factor is 0.0 (age
    ``_zero_age``), where every score is exactly 0.0 and the seed's key
    tie-break alone decides. Within a band group the score never rises with
    age, so only the oldest members that tie at its lowest are candidates.
    """

    def __init__(
        self, policy: EvictionPolicy, lrfu_lambda: float, entries: Iterable[CacheEntry]
    ) -> None:
        self.policy = policy
        self.lrfu_lambda = lrfu_lambda
        self._decaying = policy in (EvictionPolicy.WEIGHTED, EvictionPolicy.LRFU)
        self._band: "OrderedDict[str, float]" = OrderedDict()  # key -> group
        self._groups: Dict[float, "OrderedDict[str, None]"] = {}
        self._zero: set = set()
        self._zero_heap: List[str] = []
        self._sub_age = self._zero_age = math.inf
        decay: Optional[Callable[[int], float]] = None
        if policy is EvictionPolicy.WEIGHTED:
            decay = lambda age: 0.5 ** (age / WEIGHTED_HALF_LIFE)
        elif policy is EvictionPolicy.LRFU:
            base = 1.0 - lrfu_lambda
            # At λ = 1 only entries touched this tick stay in the heap, and
            # they share one clock term, so any negative slope ranks them.
            self._log_base = math.log(base) if base > 0.0 else -1.0
            decay = lambda age: base**age
        if decay is not None:
            self._sub_age = _first_age_below(decay, _NORMAL_DECAY)
            self._zero_age = _first_age_below(decay, math.ulp(0.0))
        # Oldest stamp first, so that push order is age order from the start.
        self._fresh: "OrderedDict[str, tuple]" = OrderedDict(
            (entry.key, self._rank(entry)) for entry in sorted(entries, key=self._stamp)
        )
        self._heap: List[tuple] = list(self._fresh.values())
        heapq.heapify(self._heap)

    # ----------------------------------------------------- per-policy parts

    def _rank(self, entry: CacheEntry) -> tuple:
        policy = self.policy
        if policy is EvictionPolicy.WEIGHTED:
            base = REUSE_WEIGHT * entry.reuse_hits + AUGMENT_WEIGHT * entry.augment_hits
            return (math.log2(base + 0.5) + entry.last_access / WEIGHTED_HALF_LIFE, entry.key)
        if policy is EvictionPolicy.LRFU:
            return (math.log(entry.crf) - entry.crf_updated_at * self._log_base, entry.key)
        if policy is EvictionPolicy.LRU:
            return (entry.last_access, entry.key)
        return (entry.reuse_hits + entry.augment_hits, entry.last_access, entry.key)

    def _stamp(self, entry: CacheEntry) -> int:
        """The tick the entry's decay counts from."""
        if self.policy is EvictionPolicy.LRFU:
            return entry.crf_updated_at
        return entry.last_access

    def _group(self, entry: CacheEntry) -> float:
        if self.policy is EvictionPolicy.LRFU:
            return entry.crf
        return REUSE_WEIGHT * entry.reuse_hits + AUGMENT_WEIGHT * entry.augment_hits

    def _score(self, entry: CacheEntry, clock: int) -> float:
        if self.policy is EvictionPolicy.LRFU:
            return entry.lrfu_score(clock, self.lrfu_lambda)
        return entry.weighted_score(clock)

    # ------------------------------------------------------------- updates

    def push(self, entry: CacheEntry) -> None:
        """Rank ``entry`` afresh; its previous record, if any, goes stale."""
        key = entry.key
        if key in self._band or key in self._zero:
            self._unlink(key)
        record = self._rank(entry)
        fresh = self._fresh
        fresh[key] = record
        fresh.move_to_end(key)
        heap = self._heap
        heapq.heappush(heap, record)
        if len(heap) > 2 * len(fresh):
            self._heap = list(fresh.values())
            heapq.heapify(self._heap)

    def discard(self, key: str) -> None:
        if self._fresh.pop(key, None) is None:
            self._unlink(key)

    def _unlink(self, key: str) -> None:
        """Take ``key`` out of the underflow set."""
        group = self._band.pop(key, None)
        if group is None:
            self._zero.discard(key)
            return
        members = self._groups[group]
        del members[key]
        if not members:
            del self._groups[group]

    def _age(self, entries: Dict[str, CacheEntry], clock: int) -> None:
        """Move entries that have aged past a float boundary along. The
        band holds older stamps than the heap, so it retires first."""
        fresh, band, stamp_of = self._fresh, self._band, self._stamp
        zero_horizon = clock - self._zero_age
        retired = []
        while band:
            key = next(iter(band))
            if stamp_of(entries[key]) > zero_horizon:
                break
            self._unlink(key)
            retired.append(key)
        horizon = clock - self._sub_age
        while fresh:
            key = next(iter(fresh))
            entry = entries[key]
            stamp = stamp_of(entry)
            if stamp > horizon:
                break
            del fresh[key]
            if stamp <= zero_horizon:
                retired.append(key)
                continue
            group = self._group(entry)
            band[key] = group
            self._groups.setdefault(group, OrderedDict())[key] = None
        if retired:
            self._zero.update(retired)
            zero_heap = self._zero_heap
            if len(retired) > len(zero_heap) // 8:
                zero_heap.extend(retired)
                heapq.heapify(zero_heap)
            else:
                for key in retired:
                    heapq.heappush(zero_heap, key)

    # -------------------------------------------------------------- victim

    def victim(self, entries: Dict[str, CacheEntry], clock: int) -> str:
        """The key the seed's ``min()`` over every entry would evict."""
        if self._decaying:
            self._age(entries, clock)
        heap, fresh = self._heap, self._fresh
        while heap and fresh.get(heap[0][-1]) is not heap[0]:
            heapq.heappop(heap)
        if not self._decaying:
            return heap[0][-1]
        score = self._score
        best: Optional[Tuple[float, str]] = None  # the seed's (score, key) min
        zero_heap = self._zero_heap
        while zero_heap and zero_heap[0] not in self._zero:
            heapq.heappop(zero_heap)
        if zero_heap:
            best = (0.0, zero_heap[0])
            if len(zero_heap) > 2 * len(self._zero):
                self._zero_heap = sorted(self._zero)  # a sorted list is a heap
        for members in self._groups.values():
            lowest = None
            for key in members:  # oldest first: scores never fall after
                value = score(entries[key], clock)
                if value != lowest and lowest is not None:
                    break
                if best is not None and value > best[0]:
                    break
                lowest = value
                if best is None or (value, key) < best:
                    best = (value, key)
        if heap:
            low = heap[0][0]
            limit = low + _BAND_ABS + abs(low) * _BAND_REL
            size = len(heap)
            stack = [0]
            while stack:
                i = stack.pop()
                record = heap[i]
                if record[0] > limit:
                    continue
                key = record[-1]
                if fresh.get(key) is record:
                    candidate = (score(entries[key], clock), key)
                    if best is None or candidate < best:
                        best = candidate
                child = 2 * i + 1
                stack.extend(range(child, min(child + 2, size)))
        assert best is not None
        return best[1]


class SemanticCache:
    """Similarity-matched, budget-bounded LLM response cache.

    Probes search the cache's own exact cosine
    :class:`~repro.vectordb.FlatIndex` over ``embedding_dim``-wide vectors
    at every capacity, so probe decisions are always identical to a
    per-entry linear scan.

    Exact-match contract: ``reuse_threshold == augment_threshold == 1.0``
    means key equality and no vectors — a lookup is one dict probe, a
    non-key is a miss, and neither ``lookup``/``peek``/``batch_probe`` nor
    ``put`` ever calls the embedder or the index (distinct texts may share
    one embedding, so a similarity of 1.0 does *not* imply the same text).

    Thread safety: every probe and mutation holds one re-entrant cache
    lock, so concurrent callers can never observe a torn state (an entry
    in ``entries`` missing from the index, a half-compacted FlatIndex
    buffer, a clock that went backwards). Embedding — the expensive part
    of both paths — runs *outside* the lock. Note the distinction from
    determinism: the lock guarantees consistency under any interleaving,
    but cache *contents* still depend on the order operations arrive, so
    reproducing a serial run bit-for-bit requires issuing operations in
    the serial order (the batching scheduler's single-worker mode does
    exactly this).
    """

    def __init__(
        self,
        capacity: int = 256,
        reuse_threshold: float = 0.95,
        augment_threshold: float = 0.75,
        policy: EvictionPolicy = EvictionPolicy.WEIGHTED,
        embedding_dim: int = 64,
        lrfu_lambda: float = 0.1,
        admission: Optional[AdmissionPredictor] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0.0 < augment_threshold <= reuse_threshold <= 1.0):
            raise ValueError("need 0 < augment_threshold <= reuse_threshold <= 1")
        if not (0.0 < lrfu_lambda <= 1.0):
            raise ValueError("lrfu_lambda must be in (0, 1]")
        self.capacity = capacity
        self.reuse_threshold = reuse_threshold
        self.augment_threshold = augment_threshold
        self.policy = policy
        self.lrfu_lambda = lrfu_lambda
        self.admission = admission
        self.admission_rejects = 0
        self.embedder = EmbeddingModel(dim=embedding_dim)
        self.entries: Dict[str, CacheEntry] = {}
        self.index = FlatIndex(dim=embedding_dim)
        self.stats = CacheStats()
        self._clock = 0
        # Built by the first eviction; see _EvictionOrder.
        self._order: Optional[_EvictionOrder] = None
        # Guards entries, the vector index, the eviction order, stats, and
        # the clock as one unit: the index and the entry dict must never
        # disagree.
        self._lock = threading.RLock()
        # Batch-probe support: an append-only log of inserted keys (with a
        # rotating base offset so it stays bounded) lets a probe snapshot
        # be merged exactly with entries inserted after it. The active
        # probe is per-thread: a dispatcher thread probes its whole batch
        # once, then its per-request lookups reuse the precomputed sims.
        self._insert_log: List[str] = []
        self._insert_log_base = 0
        self._probe_local = threading.local()
        # Write-behind puts: entries parked here are live in ``entries``
        # (hit/evict/len all see them) but not yet embedded or in the
        # vector index. The first probe flushes the whole buffer — one
        # batched embed sweep plus index adds in insertion order — so an
        # insert-heavy phase never pays per-put embedding or index costs.
        self._pending_puts: Dict[str, CacheEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def _exact_match(self) -> bool:
        """Both thresholds are 1.0 (``augment <= reuse <= 1`` is validated)."""
        return self.augment_threshold >= 1.0

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    # ------------------------------------------------------------- lookups

    def _best_match(self, query_vec: np.ndarray) -> Optional[Tuple[str, float]]:
        """Nearest cached key and its similarity, via the vector index."""
        return self.index.search_top1(query_vec, refine_exact=True)

    # --------------------------------------------------------- batch probes

    def batch_probe(self, queries: Sequence[str]) -> Optional["_BatchProbe"]:
        """Precompute best matches for a whole batch with one matrix pass.

        Called through the serving layer's ``begin_batch`` hook: all
        batch keys are embedded in one :meth:`EmbeddingModel.embed_batch`
        sweep and scored against the index in one matrix-matrix product
        (instead of a gemv per request). The probe is installed for the
        *calling thread*; subsequent :meth:`lookup`/:meth:`peek` calls on
        that thread reuse the precomputed winner instead of re-scanning.

        Exactness: the probe records the insert-log position and eviction
        count at snapshot time. A later lookup takes the snapshot winner
        and merges it with scalar similarities of entries inserted *after*
        the snapshot, in insertion order with a strict ``>`` — exactly the
        first-inserted-strictly-greatest rule the sequential scan applies —
        so the merged result is bit-identical to an unprobed lookup. Any
        eviction after the snapshot invalidates the probe (lookups fall
        back to the full scan); correctness never depends on the probe.

        Returns the probe (also threaded through ``_probe_local``), or
        ``None`` when there is nothing to precompute: an exact-match cache
        has no similarities. Call :meth:`end_probe` when the batch is done.
        """
        if self._exact_match:
            return None
        unique = list(dict.fromkeys(queries))
        if not unique:
            return None
        vectors = self.embedder.embed_batch(unique)
        with self._lock:
            if self._pending_puts:
                self._flush_puts()
            # Rotate the insert log so it can't grow without bound; any
            # probe older than the rotation simply falls back.
            if len(self._insert_log) > 4096:
                self._insert_log_base += len(self._insert_log)
                self._insert_log = []
            if self.entries:
                hits = self.index.search_top1_many(vectors, refine_exact=True)
            else:
                hits = [None] * len(unique)
            probe = _BatchProbe(
                best={q: hit for q, hit in zip(unique, hits)},
                vectors={q: vectors[i] for i, q in enumerate(unique)},
                log_pos=self._insert_log_base + len(self._insert_log),
                evictions=self.stats.evictions,
            )
        self._probe_local.probe = probe
        return probe

    def end_probe(self) -> None:
        """Drop the calling thread's active batch probe (if any)."""
        self._probe_local.probe = None

    def _probe_best(
        self, query: str, query_vec: np.ndarray
    ) -> Optional[Tuple[str, float]]:
        """Best match via the thread's batch probe, or the full scan.

        Must be called under the cache lock."""
        if query in self.entries:
            # Inserted by another thread since _key_probe ran off this lock
            # section: the exact-requery rule still applies.
            return query, 1.0
        if self._pending_puts:
            self._flush_puts()
        probe: Optional[_BatchProbe] = getattr(self._probe_local, "probe", None)
        if (
            probe is None
            or query not in probe.best
            or probe.evictions != self.stats.evictions
            or probe.log_pos < self._insert_log_base
        ):
            return self._best_match(query_vec)
        best = probe.best[query]
        delta = self._insert_log[probe.log_pos - self._insert_log_base :]
        if delta:
            best_sim = best[1] if best is not None else -np.inf
            best_key = best[0] if best is not None else None
            for key in delta:
                entry = self.entries.get(key)
                if entry is None:  # evicted — but then evictions differed
                    return self._best_match(query_vec)
                sim = scalar_similarity(query_vec, entry.embedding, Metric.COSINE)
                if sim > best_sim:
                    best_sim, best_key = sim, key
            if best_key is None:
                return None
            return best_key, float(best_sim)
        return best

    def _key_probe(self, query: str) -> Optional[CacheLookup]:
        """The part of a probe that needs no vectors (under the cache lock);
        None when the similarity scan has to decide.

        An exact key is a reuse hit at similarity 1.0 whatever the
        thresholds: distinct texts can share one embedding (same feature
        multiset), and a similarity scan would tie-break to whichever was
        inserted first. In an exact-match cache that is the whole probe —
        no other text may be returned, so a non-key is a miss."""
        entry = self.entries.get(query)
        if entry is not None:
            return CacheLookup(tier="reuse", entry=entry, similarity=1.0)
        if not self.entries or self._exact_match:
            return CacheLookup(tier="miss")
        return None

    def _vector_probe(self, query: str, query_vec: np.ndarray) -> CacheLookup:
        """Tier ``query`` by its nearest cached entry (under the cache lock)."""
        best = self._probe_best(query, query_vec) if self.entries else None
        if best is not None:
            best_key, best_sim = best
            if best_sim >= self.reuse_threshold:
                return CacheLookup("reuse", self.entries[best_key], best_sim)
            if best_sim >= self.augment_threshold:
                return CacheLookup("augment", self.entries[best_key], best_sim)
        return CacheLookup(tier="miss")

    def _record(self, found: CacheLookup) -> CacheLookup:
        """Apply one lookup's bookkeeping (under the cache lock)."""
        self._clock += 1
        self.stats.lookups += 1
        entry = found.entry
        if entry is None:
            self.stats.misses += 1
            return found
        if found.tier == "reuse":
            entry.reuse_hits += 1
            self.stats.reuse_hits += 1
            self.stats.cost_saved += entry.cost_of_miss
        else:
            entry.augment_hits += 1
            self.stats.augment_hits += 1
        self._touch(entry)
        return found

    def _touch(self, entry: CacheEntry) -> None:
        """Reference ``entry`` at the current clock (under the cache lock):
        stamp it for every policy and re-rank it for eviction."""
        entry.last_access = self._clock
        entry.touch_lrfu(self._clock, self.lrfu_lambda)
        if self._order is not None:
            self._order.push(entry)

    def lookup(self, query: str) -> CacheLookup:
        """Probe the cache; updates hit statistics."""
        with self._lock:
            found = self._key_probe(query)
            if found is not None:
                return self._record(found)
        # Embed off the lock: the embedder memoizes under its own lock and
        # the vector is a pure function of the query text.
        query_vec = self.embedder.embed(query)
        with self._lock:
            return self._record(self._vector_probe(query, query_vec))

    def peek(self, query: str) -> CacheLookup:
        """Read-only probe: the same tiering as :meth:`lookup`, but no
        statistics, hit counters or eviction-clock updates — the serving
        layer's degraded-answer fallback uses this so failure handling
        never perturbs cache behavior."""
        with self._lock:
            found = self._key_probe(query)
            if found is not None:
                return found
        query_vec = self.embedder.embed(query)
        with self._lock:
            return self._vector_probe(query, query_vec)

    def touch_hit(self, key: str, tier: str) -> CacheEntry:
        """Apply a hit decided by an external router to entry ``key``.

        The sharded cluster cache (:mod:`repro.serving.cluster`) probes
        every partition read-only via :meth:`peek`, merges the per-shard
        winners itself, and then applies exactly one hit — here — to the
        winning partition, so entry hit counters, the LRFU clock and the
        partition's :class:`CacheStats` evolve as if the winning partition
        had served the lookup directly."""
        if tier not in ("reuse", "augment"):
            raise ValueError(f"tier must be 'reuse' or 'augment', got {tier!r}")
        with self._lock:
            entry = self.entries[key]
            self._record(CacheLookup(tier, entry))
            return entry

    # ------------------------------------------------------------- updates

    def put(
        self,
        query: str,
        response: str,
        kind: str = "original",
        cost: float = 0.0,
        completion: Optional[Completion] = None,
    ) -> Optional[CacheEntry]:
        """Insert (or refresh) an entry, evicting if over capacity.

        ``completion`` (the answer ``response`` came from) rides on the
        entry; a refresh replaces or clears it with the response.

        Embedding and the index add are write-behind: the entry is parked
        in ``_pending_puts`` and materialized (one batched embed sweep,
        index adds in insertion order) by the next probe, so a put is a
        dict insert and a buffer park, plus a heap push and an O(log n)
        eviction once the cache is full. An exact-match cache parks
        nothing: no entry of it is ever embedded or indexed.

        With an :class:`AdmissionPredictor` configured, entries predicted
        to never be re-accessed are refused (returns None)."""
        with self._lock:
            self._clock += 1
            entry = self.entries.get(query)
            if entry is not None:
                return self._refresh(entry, response, cost, completion)
            if self.admission is None:
                return self._insert(query, response, kind, cost, None, completion)
        # Admission probe and embedding run off the cache lock: the
        # predictor and the embedder memo each carry their own lock, and
        # neither depends on cache state.
        if not self.admission.should_admit(query, kind=kind):
            with self._lock:
                self.admission_rejects += 1
            return None
        embedding = None if self._exact_match else self.embedder.embed(query)
        with self._lock:
            entry = self.entries.get(query)
            if entry is not None:
                # Another thread inserted the same key while we were off
                # the lock — refresh rather than duplicate the index row.
                return self._refresh(entry, response, cost, completion)
            return self._insert(query, response, kind, cost, embedding, completion)

    def _refresh(
        self, entry: CacheEntry, response: str, cost: float, completion: Optional[Completion]
    ) -> CacheEntry:
        entry.response = response
        entry.cost_of_miss = cost
        entry.completion = completion
        self._touch(entry)
        return entry

    def _insert(
        self,
        query: str,
        response: str,
        kind: str,
        cost: float,
        embedding: Optional[np.ndarray],
        completion: Optional[Completion],
    ) -> CacheEntry:
        """Add a new entry at the current clock (under the cache lock),
        evicting down to capacity first."""
        while len(self.entries) >= self.capacity:
            self._evict()
        # A fresh entry's touch_lrfu is 0*(1-λ)**age + 1 == 1.0 exactly, so
        # it is folded into the constructor (bit-identical to the seed).
        entry = CacheEntry(
            key=query,
            embedding=embedding,
            response=response,
            kind=kind,
            cost_of_miss=cost,
            last_access=self._clock,
            inserted_at=self._clock,
            crf=1.0,
            crf_updated_at=self._clock,
            completion=completion,
        )
        self.entries[query] = entry
        if self._order is not None:
            self._order.push(entry)
        if self.augment_threshold < 1.0:  # not self._exact_match, inlined
            self._pending_puts[query] = entry
            self._insert_log.append(query)
        return entry

    def _flush_puts(self) -> None:
        """Materialize the write-behind put buffer (under the cache lock).

        Embeds every un-embedded parked entry with one
        :meth:`EmbeddingModel.embed_batch` sweep, then pushes all parked
        entries into the vector index in insertion order — so index row
        order (and therefore first-inserted tie-breaks) is exactly what
        eager per-put adds would have produced."""
        pending = self._pending_puts
        if not pending:
            return
        self._pending_puts = {}
        missing = [key for key, entry in pending.items() if entry.embedding is None]
        if missing:
            matrix = self.embedder.embed_batch(missing)
            for i, key in enumerate(missing):
                pending[key].embedding = matrix[i]
        for key, entry in pending.items():
            self.index.add(key, entry.embedding)

    def flush(self) -> None:
        """Force-materialize all write-behind state now.

        Flushes the cache-level put buffer (embeddings + index adds) and
        the index's own pending block. Probes do this automatically; call
        it before inspecting ``cache.index`` internals or measuring
        steady-state probe latency."""
        with self._lock:
            self._flush_puts()
            self.index.flush()

    def _evict(self) -> None:
        """Drop the policy's victim (under the cache lock, entries non-empty)."""
        order = self._order
        if order is None:
            order = _EvictionOrder(self.policy, self.lrfu_lambda, self.entries.values())
            self._order = order
        key = order.victim(self.entries, self._clock)
        order.discard(key)
        del self.entries[key]
        if self._pending_puts.pop(key, None) is None and not self._exact_match:
            # Only flushed entries ever reached the index; a victim still
            # in the put buffer just gets retracted from it.
            self.index.remove(key)
        self.stats.evictions += 1

    # ------------------------------------------------------------- state

    def _config(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "reuse_threshold": self.reuse_threshold,
            "augment_threshold": self.augment_threshold,
            "policy": self.policy.value,
            "lrfu_lambda": self.lrfu_lambda,
            "embedding_dim": self.embedder.dim,
        }

    def state_dict(self) -> Dict[str, object]:
        """The cache's full logical state as plain JSON data: its
        configuration, clock, stats, entries (with hit counters, LRFU
        values, insertion order and completions) and the admission
        predictor's history. Embeddings are left out.

        Flushes the write-behind put buffer first, so the state never
        holds (or strands) half-materialized entries: every entry it
        records is embedded and indexed exactly as a probe would see it."""
        with self._lock:
            self._flush_puts()
            data: Dict[str, object] = {
                **self._config(),
                "clock": self._clock,
                "admission_rejects": self.admission_rejects,
                "stats": asdict(self.stats),
                "entries": [entry.state_dict() for entry in self.entries.values()],
            }
            if self.admission is not None:
                data["admission"] = self.admission.state_dict()
        return data

    def load_state(self, data: Dict[str, object]) -> None:
        """Replace the cache's whole state with :meth:`state_dict` data.

        The configuration must match — recovery into a differently-tuned
        cache would silently change behavior, so it raises instead. Entry
        embeddings are re-derived from the keys (the embedder is a pure
        function of the text, so the vectors are bit-identical to the ones
        that were live when the state was taken); an exact-match cache
        keeps no vectors and gets none. The vector index is rebuilt in
        entry order into a fresh :class:`FlatIndex`, and the eviction order
        from the loaded entries by the next eviction."""
        for key, live in self._config().items():
            if data[key] != live:
                raise ValueError(
                    f"cache snapshot {key}={data[key]!r} does not match the "
                    f"live cache's {key}={live!r}"
                )
        entries = [CacheEntry.from_state(stored) for stored in data["entries"]]  # type: ignore[union-attr]
        with self._lock:
            self.entries.clear()
            # Un-flushed write-behind puts die with the entries they shadow.
            self._pending_puts = {}
            self.index = FlatIndex(dim=self.index.dim)
            if not self._exact_match:
                matrix = self.embedder.embed_batch([entry.key for entry in entries])
                for entry, vector in zip(entries, matrix):
                    entry.embedding = vector
                    self.index.add(entry.key, vector)
            for entry in entries:
                self.entries[entry.key] = entry
            self._order = None
            # The wholesale replacement invalidates any in-flight batch
            # probe: advance the insert-log base past every recorded probe
            # position so their lookups fall back to a full (fresh-index)
            # scan.
            self._insert_log_base += len(self._insert_log) + 1
            self._insert_log = []
            self.stats = CacheStats(**data["stats"])  # type: ignore[arg-type]
            self._clock = data["clock"]
            self.admission_rejects = data["admission_rejects"]
            if self.admission is not None and "admission" in data:
                self.admission.load_state(data["admission"])  # type: ignore[arg-type]
