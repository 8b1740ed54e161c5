"""Hot-path performance harness: vectorized similarity paths vs linear scan.

The serving hot paths — semantic-cache probes, admission checks, few-shot
selection — were originally per-entry Python loops calling
:func:`repro._util.cosine`. They are now one matrix reduction each, backed
by :mod:`repro.vectordb`. This module keeps the original linear-scan
implementations, the seed per-feature embedding loop
(:func:`linear_embed_text`) and the seed edit-distance dynamic program
(:func:`linear_levenshtein`), frozen as references, times a SQL key
window read through the primary-key range against the full scan
(:func:`run_sql_pk_range`), and provides two entry points:

* :func:`run_equivalence` — replays identical randomized workloads through
  the reference and the vectorized implementations and demands
  **bit-identical** results: lookup tiers, similarities, matched keys,
  stats, eviction order, admission decisions, selection order.
* :func:`run_hotpaths` — times both sides at several cache sizes and
  writes ``BENCH_hotpaths.json`` so successive PRs accumulate a perf
  trajectory.

The references deliberately reuse the (unchanged) ``CacheEntry`` /
``CacheStats`` machinery and the same refresh semantics as the current
cache, so the comparison isolates exactly one variable: the scan strategy.

It also keeps :class:`SimulatedServiceProvider`, the sleep-per-call
provider wrapper the serving examples run on. Serving throughput, gateway
goodput and cluster accounting are measured end to end by
``benchmarks/e2e`` (``BENCHMARK.json``), not here.

And it hosts the *chaos* benchmark for the resilience layer:

* :func:`run_chaos` — injects transient faults at several rates via
  :class:`~repro.llm.faults.FaultInjectingProvider` and compares the
  unprotected stack against one wrapped in
  :class:`~repro.serving.resilience.ResilienceMiddleware`: availability,
  simulated latency percentiles, recovery counters. At rate 0 it also
  replays a workload through the *full* stack (cache + cascade + budget +
  resilience over an armed-but-silent fault injector) and demands
  bit-identical completions versus the stack without the failure model —
  resilience must be free when nothing fails. Writes ``BENCH_chaos.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import cosine, levenshtein, rng_from, stable_hash, words
from repro.bench.reporting import format_table
from repro.core.cache import (
    AdmissionPredictor,
    CacheEntry,
    CacheLookup,
    CacheStats,
    EvictionPolicy,
    SemanticCache,
)
from repro.core.prompts.selector import mmr_select, similarity_select
from repro.errors import LLMError
from repro.llm.client import Completion, LLMClient
from repro.llm.embeddings import DEFAULT_DIM, EmbeddingModel, embed_text
from repro.llm.faults import FaultInjectingProvider
from repro.serving import ResilienceConfig, build_stack
from repro.sqldb import Database, SQLType

DEFAULT_REPORT_PATH = "BENCH_hotpaths.json"
SCHEMA = "repro.bench.hotpaths/v1"
DEFAULT_CHAOS_REPORT_PATH = "BENCH_chaos.json"
CHAOS_SCHEMA = "repro.bench.chaos/v1"


# ===========================================================================
# Frozen references: the pre-vectorization linear scans
# ===========================================================================


class LinearScanCache:
    """The seed ``SemanticCache``: an O(n) Python loop per probe.

    Kept verbatim (plus the put-refresh fix shared with the live cache) as
    the equivalence and benchmark baseline."""

    def __init__(
        self,
        capacity: int = 256,
        reuse_threshold: float = 0.95,
        augment_threshold: float = 0.75,
        policy: EvictionPolicy = EvictionPolicy.WEIGHTED,
        embedding_dim: int = 64,
        lrfu_lambda: float = 0.1,
    ) -> None:
        self.capacity = capacity
        self.reuse_threshold = reuse_threshold
        self.augment_threshold = augment_threshold
        self.policy = policy
        self.lrfu_lambda = lrfu_lambda
        self.embedder = EmbeddingModel(dim=embedding_dim)
        self.entries: Dict[str, CacheEntry] = {}
        self.stats = CacheStats()
        self._clock = 0

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, query: str) -> CacheLookup:
        self._clock += 1
        self.stats.lookups += 1
        if not self.entries:
            self.stats.misses += 1
            return CacheLookup(tier="miss")
        query_vec = self.embedder.embed(query)
        exact = self.entries.get(query)
        if exact is not None:
            # Exact requery returns its own entry: distinct texts can share
            # one embedding (same feature multiset), and a similarity scan
            # would tie-break to whichever was inserted first.
            best_entry, best_sim = exact, 1.0
        else:
            best_entry = None
            best_sim = -1.0
            for entry in self.entries.values():
                sim = cosine(query_vec, entry.embedding)
                if sim > best_sim:
                    best_sim, best_entry = sim, entry
            assert best_entry is not None
        if best_sim >= self.reuse_threshold:
            best_entry.reuse_hits += 1
            best_entry.last_access = self._clock
            best_entry.touch_lrfu(self._clock, self.lrfu_lambda)
            self.stats.reuse_hits += 1
            self.stats.cost_saved += best_entry.cost_of_miss
            return CacheLookup(tier="reuse", entry=best_entry, similarity=best_sim)
        if best_sim >= self.augment_threshold:
            best_entry.augment_hits += 1
            best_entry.last_access = self._clock
            best_entry.touch_lrfu(self._clock, self.lrfu_lambda)
            self.stats.augment_hits += 1
            return CacheLookup(tier="augment", entry=best_entry, similarity=best_sim)
        self.stats.misses += 1
        return CacheLookup(tier="miss")

    def put(
        self, query: str, response: str, kind: str = "original", cost: float = 0.0
    ) -> Optional[CacheEntry]:
        self._clock += 1
        if query in self.entries:
            entry = self.entries[query]
            entry.response = response
            entry.cost_of_miss = cost
            entry.last_access = self._clock
            entry.touch_lrfu(self._clock, self.lrfu_lambda)
            return entry
        while len(self.entries) >= self.capacity:
            self._evict()
        entry = CacheEntry(
            key=query,
            embedding=self.embedder.embed(query),
            response=response,
            kind=kind,
            cost_of_miss=cost,
            last_access=self._clock,
            inserted_at=self._clock,
        )
        entry.touch_lrfu(self._clock, self.lrfu_lambda)
        self.entries[query] = entry
        return entry

    def _evict(self) -> None:
        if not self.entries:
            return
        if self.policy is EvictionPolicy.LRU:
            victim = min(self.entries.values(), key=lambda e: (e.last_access, e.key))
        elif self.policy is EvictionPolicy.LFU:
            victim = min(
                self.entries.values(),
                key=lambda e: (e.reuse_hits + e.augment_hits, e.last_access, e.key),
            )
        elif self.policy is EvictionPolicy.LRFU:
            victim = min(
                self.entries.values(),
                key=lambda e: (e.lrfu_score(self._clock, self.lrfu_lambda), e.key),
            )
        else:
            victim = min(
                self.entries.values(),
                key=lambda e: (e.weighted_score(self._clock), e.key),
            )
        del self.entries[victim.key]
        self.stats.evictions += 1


class LinearScanAdmission:
    """The seed ``AdmissionPredictor``: list-of-vectors history scan."""

    def __init__(
        self,
        history: int = 256,
        similarity_threshold: float = 0.92,
        admit_subqueries: bool = True,
        embedding_dim: int = 64,
    ) -> None:
        self.history = history
        self.similarity_threshold = similarity_threshold
        self.admit_subqueries = admit_subqueries
        self.embedder = EmbeddingModel(dim=embedding_dim)
        self._seen: List[np.ndarray] = []

    def observe(self, query: str) -> None:
        self._seen.append(self.embedder.embed(query))
        if len(self._seen) > self.history:
            del self._seen[0]

    def seen_similar(self, query: str) -> bool:
        vec = self.embedder.embed(query)
        return any(cosine(vec, other) >= self.similarity_threshold for other in self._seen)

    def should_admit(self, query: str, kind: str = "original") -> bool:
        if self.admit_subqueries and kind == "sub":
            self.observe(query)
            return True
        admit = self.seen_similar(query)
        self.observe(query)
        return admit


def linear_similarity_select(
    query: str,
    candidates: Sequence[str],
    k: int,
    embedder: Optional[EmbeddingModel] = None,
) -> List[str]:
    """The seed per-candidate-loop ``similarity_select``."""
    if k <= 0 or not candidates:
        return []
    embedder = embedder or EmbeddingModel()
    query_vec = embedder.embed(query)
    scored = [
        (cosine(query_vec, embedder.embed(c)), i, c) for i, c in enumerate(candidates)
    ]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [c for _s, _i, c in scored[:k]]


def linear_mmr_select(
    query: str,
    candidates: Sequence[str],
    k: int,
    lambda_relevance: float = 0.7,
    embedder: Optional[EmbeddingModel] = None,
) -> List[str]:
    """The seed per-pair-loop ``mmr_select``."""
    if k <= 0 or not candidates:
        return []
    embedder = embedder or EmbeddingModel()
    query_vec = embedder.embed(query)
    vectors = [embedder.embed(c) for c in candidates]
    relevance = [cosine(query_vec, v) for v in vectors]

    selected: List[int] = []
    remaining = list(range(len(candidates)))
    while remaining and len(selected) < k:

        def mmr_score(idx: int) -> float:
            redundancy = max(
                (cosine(vectors[idx], vectors[j]) for j in selected), default=0.0
            )
            return lambda_relevance * relevance[idx] - (1 - lambda_relevance) * redundancy

        best = max(remaining, key=lambda idx: (mmr_score(idx), -idx))
        selected.append(best)
        remaining.remove(best)
    return [candidates[i] for i in selected]


_LINEAR_STOPWORDS = frozenset(
    """
    a an and are as at be by for from had has have in is it of on or that the
    this to was were what which who whom with
    """.split()
)
# The seed's process-wide feature-direction memo, private to the oracle.
_linear_directions: Dict[str, np.ndarray] = {}


def _linear_direction(feature: str, dim: int) -> np.ndarray:
    key = f"{dim}:{feature}"
    cached = _linear_directions.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(stable_hash(key, bits=63))
    vec = rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    if len(_linear_directions) < 200_000:
        _linear_directions[key] = vec
    return vec


def _linear_features(text: str):
    tokens = [w.lower() for w in words(text)]
    for token in tokens:
        weight = 0.25 if token in _LINEAR_STOPWORDS else 1.0
        yield f"w:{token}", weight
        if len(token) >= 5:
            for i in range(len(token) - 2):
                yield f"t:{token[i : i + 3]}", 0.3
    for a, b in zip(tokens, tokens[1:]):
        if a not in _LINEAR_STOPWORDS or b not in _LINEAR_STOPWORDS:
            yield f"b:{a}_{b}", 0.5


def linear_embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """The seed ``embed_text``: one memo probe and one ``acc +=`` per feature."""
    acc = np.zeros(dim, dtype=np.float64)
    any_feature = False
    for feature, weight in _linear_features(text):
        acc += weight * _linear_direction(feature, dim)
        any_feature = True
    if not any_feature:
        return np.zeros(dim, dtype=np.float64)
    norm = np.linalg.norm(acc)
    if norm > 0:
        acc /= norm
    return acc


def linear_levenshtein(a: str, b: str) -> int:
    """The seed ``levenshtein``: one O(len(a)*len(b)) dynamic-program cell at a time."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


# ===========================================================================
# Workloads
# ===========================================================================

_VOCAB = (
    "stadium concert film director privacy cache query patient table column "
    "vector index model data lake schema entity match join federated budget "
    "transaction ledger revenue forecast cluster shard replica batch stream"
).split()


def make_queries(n: int, seed: int = 11) -> List[str]:
    """``n`` distinct synthetic queries over a small vocabulary."""
    rng = rng_from(seed)
    queries: List[str] = []
    seen = set()
    i = 0
    while len(queries) < n:
        words = rng.choice(_VOCAB, size=int(rng.integers(3, 8)))
        text = " ".join(words) + f" #{i}"
        i += 1
        if text not in seen:
            seen.add(text)
            queries.append(text)
    return queries


def make_stream(queries: Sequence[str], length: int, seed: int = 13) -> List[str]:
    """A lookup stream with skewed repetition over ``queries``."""
    rng = rng_from(seed)
    n = len(queries)
    # Zipf-ish skew: squaring a uniform concentrates mass on low indexes.
    picks = (rng.random(length) ** 2 * n).astype(int)
    return [queries[min(int(p), n - 1)] for p in picks]


def make_probe_stream(queries: Sequence[str], length: int, seed: int = 13) -> List[str]:
    """A lookup stream of *near-duplicate* probes: reworded repeats that are
    semantically close to a stored query without being the exact string.

    Exact requery short-circuits to a dict hit (no similarity scan), so
    timing the scan path — the thing the semantic cache exists for — needs
    probes that rephrase rather than repeat."""
    rng = rng_from(seed)
    n = len(queries)
    picks = (rng.random(length) ** 2 * n).astype(int)
    return [queries[min(int(p), n - 1)] + " please" for p in picks]


def make_embed_texts(n: int, seed: int = 19) -> List[str]:
    """``n`` prompt-like texts for the embedding cell: 5-12 words from
    ``n // 4`` random-letter pseudo-words (a vocabulary the other
    generators never use, so its features start cold), about one word in
    four a stopword, plus a running number."""
    rng = rng_from(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = [
        "".join(rng.choice(letters, size=int(rng.integers(3, 10))))
        for _ in range(max(64, n // 4))
    ]
    stopwords = sorted(_LINEAR_STOPWORDS)
    texts = []
    for i in range(n):
        picks = [
            stopwords[int(rng.integers(len(stopwords)))]
            if rng.random() < 0.25
            else vocab[int(rng.integers(len(vocab)))]
            for _ in range(int(rng.integers(5, 13)))
        ]
        texts.append(" ".join(picks) + f" #{i}?")
    return texts


_RECORD_NAMES = (
    "acme bolt apollo zenith nimbus orion vertex summit harbor cedar "
    "laptop espresso machine arena stadium headphones camera monitor kettle"
).split()
_RECORD_CITIES = ("springfield", "riverside", "fairview", "georgetown", "salem", "madison")


def make_record_pairs(n: int, seed: int = 23) -> List[Tuple[str, str]]:
    """``n`` pairs of short entity descriptions, normalized the way the
    entity-match engine compares them ("acme laptop model 12 salem", the
    length of a product name against a review title): half a record
    against a copy with one to three characters changed, dropped or
    inserted, half against another record."""
    rng = rng_from(seed)
    letters = "abcdefghijklmnopqrstuvwxyz0123456789 "

    def record() -> str:
        name = " ".join(rng.choice(_RECORD_NAMES, size=int(rng.integers(2, 4))))
        city = _RECORD_CITIES[int(rng.integers(len(_RECORD_CITIES)))]
        return f"{name} model {int(rng.integers(100))} {city}"

    pairs = []
    for _ in range(n):
        a = record()
        if rng.random() < 0.5:
            b = a
            for _edit in range(int(rng.integers(1, 4))):
                i = int(rng.integers(len(b)))
                c = letters[int(rng.integers(len(letters)))]
                b = (b[:i] + c + b[i + 1 :], b[:i] + b[i + 1 :], b[:i] + c + b[i:])[
                    int(rng.integers(3))
                ]
        else:
            b = record()
        pairs.append((a, b))
    return pairs


# ===========================================================================
# Equivalence
# ===========================================================================


def _lookup_sig(lookup: CacheLookup) -> Tuple[str, float, Optional[str]]:
    return (
        lookup.tier,
        lookup.similarity,
        lookup.entry.key if lookup.entry is not None else None,
    )


def run_equivalence(
    n_queries: int = 150,
    n_ops: int = 500,
    capacity: int = 48,
    seed: int = 11,
    policies: Sequence[EvictionPolicy] = tuple(EvictionPolicy),
) -> Dict[str, object]:
    """Replay one workload through both cache implementations and compare.

    Returns a report with a ``diverged`` count per policy; any non-zero
    value means the vectorized cache is NOT a drop-in replacement."""
    queries = make_queries(n_queries, seed=seed)
    stream = make_stream(queries, n_ops, seed=seed + 1)
    # Interleave rephrased near-duplicates: exact repeats short-circuit to
    # a dict hit, so without these the similarity scan (and its tie-break
    # rules) would barely be exercised.
    stream = [q if i % 2 else q + " please" for i, q in enumerate(stream)]
    report: Dict[str, object] = {"ops_per_policy": n_ops, "policies": {}}
    total_diverged = 0
    for policy in policies:
        reference = LinearScanCache(
            capacity=capacity, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
        )
        vectorized = SemanticCache(
            capacity=capacity, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
        )
        diverged = 0
        for query in stream:
            ref_lookup = reference.lookup(query)
            vec_lookup = vectorized.lookup(query)
            if _lookup_sig(ref_lookup) != _lookup_sig(vec_lookup):
                diverged += 1
            if ref_lookup.tier != "reuse":
                reference.put(query, "answer", cost=0.01)
            if vec_lookup.tier != "reuse":
                vectorized.put(query, "answer", cost=0.01)
            if list(reference.entries) != list(vectorized.entries):
                diverged += 1
        if reference.stats != vectorized.stats:
            diverged += 1
        total_diverged += diverged
        report["policies"][policy.value] = {
            "diverged": diverged,
            "reuse_hits": vectorized.stats.reuse_hits,
            "augment_hits": vectorized.stats.augment_hits,
            "misses": vectorized.stats.misses,
            "evictions": vectorized.stats.evictions,
        }

    # Admission decisions.
    reference_admission = LinearScanAdmission(history=64, similarity_threshold=0.9)
    vector_admission = AdmissionPredictor(history=64, similarity_threshold=0.9)
    admission_diverged = sum(
        1
        for query in stream
        if reference_admission.should_admit(query) != vector_admission.should_admit(query)
    )
    total_diverged += admission_diverged
    report["admission"] = {"ops": len(stream), "diverged": admission_diverged}

    # Selection order.
    pool = queries
    shared = EmbeddingModel(memo_size=2 * len(pool) + 16)
    sel_diverged = 0
    for probe in stream[:20]:
        if linear_similarity_select(probe, pool, 8, embedder=shared) != similarity_select(
            probe, pool, 8, text_of=lambda s: s, embedder=shared
        ):
            sel_diverged += 1
        if linear_mmr_select(probe, pool, 8, embedder=shared) != mmr_select(
            probe, pool, 8, text_of=lambda s: s, embedder=shared
        ):
            sel_diverged += 1
    total_diverged += sel_diverged
    report["selection"] = {"ops": 40, "diverged": sel_diverged}

    # Batched lookups (scheduler flush path): a cache probed per-chunk via
    # batch_probe must make decision-for-decision the same calls as one
    # looked up serially.
    batched_diverged = _batched_equivalence(stream)
    total_diverged += batched_diverged
    report["batched"] = {"ops": len(stream), "diverged": batched_diverged}

    report["diverged"] = total_diverged
    return report


def _batched_equivalence(stream: Sequence[str], chunk_size: int = 8) -> int:
    """Replay ``stream`` through a plain cache and a batch-probed cache."""
    serial = SemanticCache(capacity=48, reuse_threshold=0.9, augment_threshold=0.7)
    batched = SemanticCache(capacity=48, reuse_threshold=0.9, augment_threshold=0.7)
    diverged = 0
    for start in range(0, len(stream), chunk_size):
        chunk = stream[start : start + chunk_size]
        batched.batch_probe(chunk)
        try:
            for query in chunk:
                serial_lookup = serial.lookup(query)
                batched_lookup = batched.lookup(query)
                if _lookup_sig(serial_lookup) != _lookup_sig(batched_lookup):
                    diverged += 1
                if serial_lookup.tier != "reuse":
                    serial.put(query, "answer", cost=0.01)
                if batched_lookup.tier != "reuse":
                    batched.put(query, "answer", cost=0.01)
        finally:
            batched.end_probe()
        if list(serial.entries) != list(batched.entries):
            diverged += 1
    if serial.stats != batched.stats:
        diverged += 1
    return diverged


# ===========================================================================
# Timing
# ===========================================================================


def _time_per_op(fn: Callable[[], object], min_ops: int, budget_s: float) -> Tuple[float, int]:
    """Mean milliseconds per call of ``fn`` — at least ``min_ops`` calls,
    stopping early once ``budget_s`` wall-clock is spent."""
    ops = 0
    start = time.perf_counter()
    while True:
        fn()
        ops += 1
        elapsed = time.perf_counter() - start
        if ops >= min_ops and elapsed >= budget_s:
            break
        if ops >= 10 * min_ops:
            break
    return (elapsed * 1000.0) / ops, ops


@dataclass
class HotpathReport:
    """Timings + equivalence for every similarity hot path."""

    sizes: List[int]
    ops: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    equivalence: Dict[str, object] = field(default_factory=dict)
    # Puts into a full cache, per policy then size (:func:`run_put_full`).
    put_full: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    # Embedding a text, seed loop vs direction table, per size (:func:`run_embed`).
    embed: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Edit distance of a record pair, seed DP vs bit-parallel kernel
    # (:func:`run_edit_distance`).
    edit_distance: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # A 40-row key window, full scan vs key range, per table size
    # (:func:`run_sql_pk_range`).
    sql_pk_range: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # OPENBLAS_NUM_THREADS as the run saw it (None: unset, BLAS picks).
    blas_threads: Optional[int] = None

    @property
    def diverged(self) -> int:
        total = int(self.equivalence.get("diverged", -1))
        if total >= 0:
            total += sum(
                int(cell.get("mismatches", 0))
                for sweep in self.put_full.values()
                for cell in sweep.values()
            )
        return total

    def speedup(self, op: str, size: int) -> float:
        return float(self.ops[op][str(size)]["speedup"])

    def payload(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "sizes": self.sizes,
            "ops": self.ops,
            "equivalence": self.equivalence,
            "cache_put_full": self.put_full,
            "embed": self.embed,
            "edit_distance": self.edit_distance,
            "sql_pk_range": self.sql_pk_range,
            "blas_threads": self.blas_threads,
        }

    def write(self, path: str = DEFAULT_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render(self) -> str:
        rows = []
        for op, by_size in self.ops.items():
            for size in sorted(by_size, key=int):
                cell = by_size[size]
                rows.append(
                    (
                        op,
                        int(size),
                        round(cell["linear_ms_per_op"], 4),
                        round(cell["vector_ms_per_op"], 4),
                        round(cell["speedup"], 1),
                    )
                )
        table = format_table(
            ["Hot path", "Size", "Linear ms/op", "Vector ms/op", "Speedup"],
            rows,
            title="Similarity hot paths: linear scan vs vectordb-backed",
        )
        full_rows = [
            (
                policy,
                int(size),
                round(cell["linear_cold_ms"], 4),
                round(cell["vector_cold_ms"], 4),
                round(cell["linear_ms_per_op"], 4),
                round(cell["vector_ms_per_op"], 4),
                round(cell["speedup"], 1),
                int(cell["mismatches"]),
            )
            for policy, by_size in self.put_full.items()
            for size, cell in sorted(by_size.items(), key=lambda kv: int(kv[0]))
        ]
        if full_rows:
            table += "\n" + format_table(
                ["Policy", "Entries", "Linear cold", "Vector cold", "Linear ms/op",
                 "Vector ms/op", "Speedup", "Mismatch"],
                full_rows,
                title="Put into a full cache (evicts): seed scan vs eviction heap",
            )
        embed_rows = _cold_warm_rows(self.embed)
        if embed_rows:
            table += "\n" + format_table(
                ["Texts", "Linear cold", "Table cold", "Linear ms/text", "Table ms/text",
                 "Speedup"],
                embed_rows,
                title="Embed a text: seed per-feature loop vs direction table",
            )
        edit_rows = _cold_warm_rows(self.edit_distance)
        if edit_rows:
            table += "\n" + format_table(
                ["Pairs", "DP cold", "Kernel cold", "DP ms/pair", "Kernel ms/pair",
                 "Speedup"],
                edit_rows,
                title="Edit distance of a record pair: seed DP vs bit-parallel kernel",
            )
        range_rows = _cold_warm_rows(self.sql_pk_range)
        if range_rows:
            table += "\n" + format_table(
                ["Rows", "Scan cold", "Range cold", "Scan ms/stmt", "Range ms/stmt",
                 "Speedup"],
                range_rows,
                title="Read a 40-row key window: id + 0 full scan vs primary-key range",
            )
        return table + f"\nEquivalence: diverged={self.diverged} (0 = drop-in)"


def _cold_warm_rows(cells: Dict[str, Dict[str, float]]) -> List[Tuple[object, ...]]:
    """Table rows of :func:`_cold_warm` cells, by size."""
    return [
        (
            int(size),
            round(cell["linear_cold_ms"], 4),
            round(cell["vector_cold_ms"], 4),
            round(cell["linear_ms_per_op"], 4),
            round(cell["vector_ms_per_op"], 4),
            round(cell["speedup"], 1),
        )
        for size, cell in sorted(cells.items(), key=lambda kv: int(kv[0]))
    ]


def run_put_full(
    sizes: Sequence[int] = (1024, 8192, 65536),
    seed: int = 11,
    passes: int = 5,
    pass_ops: int = 50,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Puts into a *full* cache, seed scan against eviction heap.

    Per policy and size, both caches are filled with the same ``size``
    distinct queries (the live cache is then flushed, off the clock, so
    victims leave the vector index as they would in serving), and every
    timed put is a new query, so every timed put evicts. The first such
    put is timed alone (``*_cold_ms``: it also pays whatever the fill left
    to the first eviction); then ``passes`` passes of ``pass_ops`` puts
    each, the two sides interleaved pass by pass, give the warm
    ``*_ms_per_op`` as the median pass. ``mismatches`` counts victims
    the two caches disagree on; ``evictions`` the live cache's."""
    cells: Dict[str, Dict[str, Dict[str, float]]] = {p.value: {} for p in EvictionPolicy}
    for size in sizes:
        queries = make_queries(size + 1 + passes * pass_ops, seed=seed)
        embedder = EmbeddingModel(memo_size=len(queries) + 16)
        embedder.embed_batch(queries)
        for policy in EvictionPolicy:
            reference = LinearScanCache(
                capacity=size, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
            )
            vectorized = SemanticCache(
                capacity=size, policy=policy, reuse_threshold=0.9, augment_threshold=0.7
            )
            reference.embedder = vectorized.embedder = embedder
            for query in queries[:size]:
                reference.put(query, "answer", cost=0.01)
                vectorized.put(query, "answer", cost=0.01)
            vectorized.flush()
            timed = {"linear": reference, "vector": vectorized}
            cold: Dict[str, float] = {}
            warm: Dict[str, List[float]] = {side: [] for side in timed}
            mismatches = 0
            batches = [queries[size : size + 1]] + [
                queries[size + 1 + i * pass_ops : size + 1 + (i + 1) * pass_ops]
                for i in range(passes)
            ]
            for n, batch in enumerate(batches):
                evicted: Dict[str, set] = {}
                for side, cache in timed.items():
                    before = set(cache.entries)
                    start = time.perf_counter()
                    for query in batch:
                        cache.put(query, "answer", cost=0.01)
                    ms = (time.perf_counter() - start) * 1000.0 / len(batch)
                    if n == 0:
                        cold[side] = ms
                    else:
                        warm[side].append(ms)
                    evicted[side] = before - set(cache.entries)
                mismatches += len(evicted["linear"] ^ evicted["vector"])
            linear_ms, vector_ms = (float(np.median(warm[side])) for side in timed)
            cells[policy.value][str(size)] = {
                "linear_cold_ms": cold["linear"],
                "vector_cold_ms": cold["vector"],
                "linear_ms_per_op": linear_ms,
                "vector_ms_per_op": vector_ms,
                "speedup": linear_ms / max(vector_ms, 1e-9),
                "evictions": float(vectorized.stats.evictions),
                "mismatches": float(mismatches),
            }
    return cells


_EMBED_SIZES = (1000, 10_000)
_EDIT_DISTANCE_PAIRS = 500
_PK_RANGE_ROWS = (2_000, 20_000)
_PK_RANGE_STATEMENTS = 5
_WARM_PASSES = 5


def _cold_warm(
    sides: Dict[str, Callable[[object], object]],
    inputs: Sequence[object],
    same: Callable[[object, object], bool],
) -> Tuple[Dict[str, float], int]:
    """Time the ``linear`` and ``vector`` sides over the same ``inputs``.

    Both run ``1 + _WARM_PASSES`` passes, interleaved pass by pass. The
    first pass is timed alone (``*_cold_ms``, ms per input); the warm
    ``*_ms_per_op`` is the median of the others. Returns the cell and the
    number of (pass, input) outputs on which ``same`` says the sides differ."""
    cold: Dict[str, float] = {}
    warm: Dict[str, List[float]] = {side: [] for side in sides}
    mismatches = 0
    for n in range(_WARM_PASSES + 1):
        outputs = {}
        for side, fn in sides.items():
            start = time.perf_counter()
            outputs[side] = [fn(item) for item in inputs]
            ms = (time.perf_counter() - start) * 1000.0 / len(inputs)
            if n == 0:
                cold[side] = ms
            else:
                warm[side].append(ms)
        mismatches += sum(not same(a, b) for a, b in zip(outputs["linear"], outputs["vector"]))
    linear_ms, vector_ms = (float(np.median(warm[side])) for side in ("linear", "vector"))
    cell = {
        "linear_cold_ms": cold["linear"],
        "vector_cold_ms": cold["vector"],
        "linear_ms_per_op": linear_ms,
        "vector_ms_per_op": vector_ms,
        "speedup": linear_ms / max(vector_ms, 1e-9),
    }
    return cell, mismatches


def run_embed(seed: int = 19) -> Tuple[Dict[str, Dict[str, float]], int]:
    """Embedding a text: the seed per-feature loop against the table.

    At 1k and 10k texts, both sides embed the same :func:`make_embed_texts`
    batch under :func:`_cold_warm`'s rule (the cold pass generates every
    new feature's direction). Returns the cells and the number of
    (pass, text) vectors whose bytes differ between the two sides."""
    sides = {"linear": linear_embed_text, "vector": embed_text}
    cells: Dict[str, Dict[str, float]] = {}
    mismatches = 0
    for size in _EMBED_SIZES:
        texts = make_embed_texts(size, seed=seed + size)
        cells[str(size)], diverged = _cold_warm(
            sides, texts, lambda a, b: a.tobytes() == b.tobytes()
        )
        mismatches += diverged
    return cells, mismatches


def run_edit_distance(seed: int = 23) -> Tuple[Dict[str, Dict[str, float]], int]:
    """Edit distance of a record pair: the seed dynamic program against
    the bit-parallel kernel, on :func:`make_record_pairs`, under
    :func:`_cold_warm`'s rule (ms per pair). Returns the one cell, keyed by
    the number of pairs, and the number of (pass, pair) distances that
    differ between the two sides."""
    pairs = make_record_pairs(_EDIT_DISTANCE_PAIRS, seed=seed)
    sides = {
        "linear": lambda pair: linear_levenshtein(*pair),
        "vector": lambda pair: levenshtein(*pair),
    }
    cell, mismatches = _cold_warm(sides, pairs, lambda a, b: a == b)
    return {str(_EDIT_DISTANCE_PAIRS): cell}, mismatches


def run_sql_pk_range(seed: int = 29) -> Tuple[Dict[str, Dict[str, float]], int]:
    """A statement over a 40-row window of a shuffled primary key, written
    with the key hidden from the access path (``id + 0 BETWEEN``: a full
    scan) against the sargable ``id BETWEEN`` (a key range), at 2,000 and
    20,000 rows under :func:`_cold_warm`'s rule (ms per statement). Each
    size is a fresh table, so the range side's cold pass builds the key
    index. Returns the cells and the number of (pass, statement) row lists
    that differ between the two sides."""
    sql = "SELECT id FROM t WHERE {key} BETWEEN {lo} AND {hi} AND stars <= 4 ORDER BY id"
    cells: Dict[str, Dict[str, float]] = {}
    mismatches = 0
    for size in _PK_RANGE_ROWS:
        rng = rng_from(seed + size)
        db = Database()
        columns = [("id", SQLType.INTEGER), ("product_id", SQLType.INTEGER), ("stars", SQLType.INTEGER)]
        db.create_table("t", columns, primary_key="id")
        db.insert_rows("t", [(int(i), int(i) % 64 + 1, int(i) % 5 + 1) for i in rng.permutation(size) + 1])
        starts = [int(lo) for lo in rng.integers(1, size - 39, size=_PK_RANGE_STATEMENTS)]
        sides = {
            side: (lambda lo, db=db, key=key: db.query(sql.format(key=key, lo=lo, hi=lo + 39)))
            for side, key in (("linear", "id + 0"), ("vector", "id"))
        }
        cells[str(size)], diverged = _cold_warm(sides, starts, lambda a, b: a == b)
        mismatches += diverged
    return cells, mismatches


def run_hotpaths(
    sizes: Sequence[int] = (1000, 10000, 50000),
    seed: int = 11,
    budget_s: float = 0.35,
    selection_k: int = 8,
    write_path: Optional[str] = None,
    put_full_sizes: Sequence[int] = (),
) -> HotpathReport:
    """Time lookup/put/admission/selection at each size, both backends.

    Embeddings are pre-warmed into the shared memo before timing, so the
    measured work is the scan/scoring itself — the part this PR vectorizes.
    Pass ``write_path`` to persist the JSON perf trajectory and
    ``put_full_sizes`` for the full-cache put cells of :func:`run_put_full`.
    The embedding cells of :func:`run_embed` always run, and first, so the
    direction table has not seen the other cells' words; the edit-distance
    cell of :func:`run_edit_distance` and the key-window cells of
    :func:`run_sql_pk_range` always run next.
    """
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    report = HotpathReport(sizes=list(sizes), blas_threads=int(blas) if blas else None)
    report.embed, embed_diverged = run_embed(seed=seed + 8)
    report.edit_distance, edit_diverged = run_edit_distance(seed=seed + 12)
    report.sql_pk_range, range_diverged = run_sql_pk_range(seed=seed + 18)
    ops: Dict[str, Dict[str, Dict[str, float]]] = {
        "cache_lookup": {},
        "cache_put": {},
        "admission": {},
        "selection_topk": {},
        "selection_mmr": {},
    }
    for size in sizes:
        queries = make_queries(size, seed=seed)
        # Rephrased near-duplicates: exact repeats short-circuit to a dict
        # hit on both sides, so they no longer time the similarity scan.
        probes = make_probe_stream(queries, 256, seed=seed + 2)

        # --- cache put + lookup ------------------------------------------
        # Warm each backend's embedding memo once, then reuse it across
        # put passes: a pass times the put path itself, not feature
        # hashing (which both backends share unchanged).
        embedders = []
        for _ in range(2):
            embedder = EmbeddingModel(memo_size=2 * size + 512)
            embedder.embed_batch(queries)
            embedder.embed_batch(probes)
            embedders.append(embedder)

        # Per-op put cost is a couple of microseconds, so a single pass is
        # at the mercy of scheduler preemption; take the best of a few
        # fresh-cache passes per side (the classic timeit estimator),
        # symmetrically for both backends.
        linear_put_ms = vector_put_ms = float("inf")
        reference = vectorized = None
        for _trial in range(3):
            reference = LinearScanCache(
                capacity=size, reuse_threshold=0.9, augment_threshold=0.7
            )
            reference.embedder = embedders[0]
            vectorized = SemanticCache(
                capacity=size, reuse_threshold=0.9, augment_threshold=0.7
            )
            vectorized.embedder = embedders[1]
            put_iter = iter(queries)
            ms, _ = _time_per_op(
                lambda: reference.put(next(put_iter), "answer", cost=0.01), size, 0.0
            )
            linear_put_ms = min(linear_put_ms, ms)
            put_iter = iter(queries)
            ms, _ = _time_per_op(
                lambda: vectorized.put(next(put_iter), "answer", cost=0.01), size, 0.0
            )
            vector_put_ms = min(vector_put_ms, ms)
        ops["cache_put"][str(size)] = {
            "linear_ms_per_op": linear_put_ms,
            "vector_ms_per_op": vector_put_ms,
            "speedup": linear_put_ms / max(vector_put_ms, 1e-9),
        }

        # One warm probe each, off the clock: it flushes the write-behind
        # insert buffer — a one-time cost the per-op numbers would
        # otherwise smear over the first timed ops.
        reference.lookup(probes[0])
        vectorized.lookup(probes[0])
        probe_cycle = _cycler(probes)
        linear_lookup_ms, _ = _time_per_op(
            lambda: reference.lookup(next(probe_cycle)), 3, budget_s
        )
        probe_cycle = _cycler(probes)
        vector_lookup_ms, _ = _time_per_op(
            lambda: vectorized.lookup(next(probe_cycle)), 50, budget_s
        )
        ops["cache_lookup"][str(size)] = {
            "linear_ms_per_op": linear_lookup_ms,
            "vector_ms_per_op": vector_lookup_ms,
            "speedup": linear_lookup_ms / max(vector_lookup_ms, 1e-9),
        }

        # --- admission ----------------------------------------------------
        history = min(size, 8192)
        reference_admission = LinearScanAdmission(history=history, similarity_threshold=0.9)
        vector_admission = AdmissionPredictor(history=history, similarity_threshold=0.9)
        for predictor in (reference_admission, vector_admission):
            predictor.embedder = EmbeddingModel(memo_size=2 * size + 512)
            predictor.embedder.embed_batch(queries)
            for query in queries[:history]:
                predictor.observe(query)
        probe_cycle = _cycler(probes)
        linear_adm_ms, _ = _time_per_op(
            lambda: reference_admission.seen_similar(next(probe_cycle)), 3, budget_s
        )
        probe_cycle = _cycler(probes)
        vector_adm_ms, _ = _time_per_op(
            lambda: vector_admission.seen_similar(next(probe_cycle)), 50, budget_s
        )
        ops["admission"][str(size)] = {
            "linear_ms_per_op": linear_adm_ms,
            "vector_ms_per_op": vector_adm_ms,
            "speedup": linear_adm_ms / max(vector_adm_ms, 1e-9),
        }

        # --- selection ----------------------------------------------------
        shared = EmbeddingModel(memo_size=2 * size + 512)
        shared.embed_batch(queries)
        probe = probes[0]
        shared.embed(probe)
        linear_topk_ms, _ = _time_per_op(
            lambda: linear_similarity_select(probe, queries, selection_k, embedder=shared),
            1,
            budget_s,
        )
        vector_topk_ms, _ = _time_per_op(
            lambda: similarity_select(
                probe, queries, selection_k, text_of=lambda s: s, embedder=shared
            ),
            3,
            budget_s,
        )
        ops["selection_topk"][str(size)] = {
            "linear_ms_per_op": linear_topk_ms,
            "vector_ms_per_op": vector_topk_ms,
            "speedup": linear_topk_ms / max(vector_topk_ms, 1e-9),
        }
        linear_mmr_ms, _ = _time_per_op(
            lambda: linear_mmr_select(probe, queries, selection_k, embedder=shared),
            1,
            budget_s,
        )
        vector_mmr_ms, _ = _time_per_op(
            lambda: mmr_select(probe, queries, selection_k, text_of=lambda s: s, embedder=shared),
            3,
            budget_s,
        )
        ops["selection_mmr"][str(size)] = {
            "linear_ms_per_op": linear_mmr_ms,
            "vector_ms_per_op": vector_mmr_ms,
            "speedup": linear_mmr_ms / max(vector_mmr_ms, 1e-9),
        }

    report.ops = ops
    report.equivalence = run_equivalence(seed=seed)
    report.equivalence["embed"] = {"diverged": embed_diverged}
    report.equivalence["edit_distance"] = {"diverged": edit_diverged}
    report.equivalence["sql_pk_range"] = {"diverged": range_diverged}
    report.equivalence["diverged"] += embed_diverged + edit_diverged + range_diverged
    if put_full_sizes:
        report.put_full = run_put_full(sizes=put_full_sizes, seed=seed)
    if write_path is not None:
        report.write(write_path)
    return report


def _cycler(items: Sequence[str]):
    def gen():
        while True:
            for item in items:
                yield item

    return gen()


# ===========================================================================
# Simulated service time
# ===========================================================================


class SimulatedServiceProvider:
    """Provider wrapper that charges realistic wall-clock per service call.

    The simulated :class:`~repro.llm.client.LLMClient` answers in
    microseconds, which would make any throughput benchmark measure Python
    overhead instead of serving structure. This wrapper sleeps
    ``overhead_ms + per_item_ms * n`` per call — ``time.sleep`` releases
    the GIL, so overlapping calls from several dispatcher threads overlap
    for real — while delegating the actual completion to the inner client.
    ``complete_batch`` pays the fixed overhead *once* for the whole batch,
    which is exactly the amortization micro-batching exists to buy.
    """

    def __init__(
        self,
        inner: "LLMClient",
        overhead_ms: float = 8.0,
        per_item_ms: float = 0.5,
    ) -> None:
        self.inner = inner
        self.overhead_ms = overhead_ms
        self.per_item_ms = per_item_ms

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        time.sleep((self.overhead_ms + self.per_item_ms) / 1000.0)
        return self.inner.complete(prompt, model=model)

    def complete_batch(
        self, shared_prefix: str, items: List[str], model: Optional[str] = None
    ) -> List[Completion]:
        time.sleep((self.overhead_ms + self.per_item_ms * len(items)) / 1000.0)
        return self.inner.complete_batch(shared_prefix, items, model=model)

    def embed(self, text: str):
        return self.inner.embed(text)

    def reseeded(self, offset: int) -> "SimulatedServiceProvider":
        return SimulatedServiceProvider(
            self.inner.reseeded(offset),
            overhead_ms=self.overhead_ms,
            per_item_ms=self.per_item_ms,
        )


# ===========================================================================
# Chaos: fault injection vs the resilience layer
# ===========================================================================


def _exact_percentile(sorted_ms: Sequence[float], p: float) -> float:
    """Exact percentile (nearest-rank) of an ascending latency list."""
    if not sorted_ms:
        return 0.0
    rank = max(1, -(-int(p * len(sorted_ms)) // 100))
    return sorted_ms[min(rank, len(sorted_ms)) - 1]


@dataclass
class ChaosReport:
    """Availability and latency under injected faults, both stacks.

    ``cells`` maps ``rate_<pct>`` → ``{"baseline": {...}, "resilient":
    {...}}``; all latency numbers are *simulated* milliseconds (the sum the
    middleware accounts, including backoff), so the whole report is a
    deterministic function of the seed."""

    n_requests: int
    fault_rates: List[float]
    cells: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)
    equivalence: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def cell_name(rate: float) -> str:
        return f"rate_{round(rate * 100):d}"

    def availability(self, rate: float, side: str) -> float:
        return float(self.cells[self.cell_name(rate)][side]["availability"])

    def failure_rate(self, rate: float, side: str) -> float:
        return 1.0 - self.availability(rate, side)

    @property
    def diverged(self) -> int:
        return int(self.equivalence.get("diverged", -1))

    def payload(self) -> Dict[str, object]:
        return {
            "schema": CHAOS_SCHEMA,
            "n_requests": self.n_requests,
            "fault_rates": self.fault_rates,
            "cells": self.cells,
            "equivalence": self.equivalence,
        }

    def write(self, path: str = DEFAULT_CHAOS_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render(self) -> str:
        rows = []
        for rate in self.fault_rates:
            for side in ("baseline", "resilient"):
                cell = self.cells[self.cell_name(rate)][side]
                rows.append(
                    (
                        f"{rate:.0%}",
                        side,
                        f"{float(cell['availability']):.4f}",
                        cell["failed"],
                        cell["faults_injected"],
                        cell["p50_ms"],
                        cell["p95_ms"],
                        cell.get("retries", "-"),
                        cell.get("fallbacks", "-"),
                    )
                )
        table = format_table(
            [
                "Fault rate",
                "Stack",
                "Availability",
                "Failed",
                "Injected",
                "p50 ms",
                "p95 ms",
                "Retries",
                "Fallbacks",
            ],
            rows,
            title=f"Chaos sweep ({self.n_requests} requests per cell, simulated latency)",
        )
        return table + (
            f"\nZero-fault equivalence: diverged={self.diverged} "
            "(0 = resilience layer is free when nothing fails)"
        )


def _chaos_prompts(n: int, seed: int) -> List[str]:
    # Distinct questions: every request reaches the provider, so the
    # baseline's observed failure rate is the injected rate itself rather
    # than rate x cache-miss-fraction.
    return ["Question: " + query for query in make_queries(n, seed=seed)]


def _drive_chaos(stack, prompts: Sequence[str]) -> Dict[str, object]:
    latencies: List[float] = []
    cost = 0.0
    failed = 0
    for prompt in prompts:
        try:
            completion = stack.complete(prompt)
        except LLMError:
            failed += 1
            continue
        latencies.append(completion.latency_ms)
        cost += completion.cost
    ordered = sorted(latencies)
    return {
        "requests": len(prompts),
        "completed": len(latencies),
        "failed": failed,
        "availability": round(len(latencies) / max(len(prompts), 1), 6),
        "p50_ms": round(_exact_percentile(ordered, 50), 3),
        "p95_ms": round(_exact_percentile(ordered, 95), 3),
        "mean_ms": round(sum(ordered) / max(len(ordered), 1), 3),
        "cost_usd": round(cost, 6),
    }


def _chaos_equivalence(n_requests: int, seed: int) -> Dict[str, object]:
    """Full stack, fault injector armed at rate 0 + resilience layer,
    versus the same stack without either: completions must be identical."""

    def full_stack(with_faults: bool):
        client: object = LLMClient()
        if with_faults:
            client = FaultInjectingProvider(client, default_rate=0.0, seed=seed)
        return build_stack(
            client,
            cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
            chain=("babbage-002", "gpt-3.5-turbo", "gpt-4"),
            budget_usd=50.0,
            resilience=with_faults,
        )

    prompts = _chaos_prompts(n_requests, seed + 7)
    prompts = prompts + prompts[: max(1, n_requests // 4)]  # repeats: cache traffic
    reference = full_stack(with_faults=False)
    candidate = full_stack(with_faults=True)
    diverged = sum(
        1
        for prompt in prompts
        if reference.complete(prompt) != candidate.complete(prompt)
    )
    return {"requests": len(prompts), "diverged": diverged}


def run_chaos(
    n_requests: int = 300,
    fault_rates: Sequence[float] = (0.0, 0.05, 0.15),
    seed: int = 11,
    equivalence_requests: int = 40,
    config: Optional[ResilienceConfig] = None,
    write_path: Optional[str] = None,
) -> ChaosReport:
    """Sweep injected-fault rates over the unprotected and resilient stacks.

    Per rate, the same distinct-prompt stream is driven through (a) a bare
    metrics stack over a :class:`FaultInjectingProvider` — every injected
    fault is a failed request — and (b) the same provider wrapped in
    :class:`~repro.serving.resilience.ResilienceMiddleware`. The report
    records availability, simulated latency percentiles (backoff included),
    dollar cost and the recovery counters, plus the zero-fault equivalence
    check; all of it deterministic in ``seed``.
    """
    report = ChaosReport(n_requests=n_requests, fault_rates=[float(r) for r in fault_rates])
    prompts = _chaos_prompts(n_requests, seed)
    for rate in report.fault_rates:
        cell: Dict[str, Dict[str, object]] = {}
        for side in ("baseline", "resilient"):
            provider = FaultInjectingProvider(
                LLMClient(), default_rate=rate, seed=seed + 1
            )
            resilience = (config if config is not None else True) if side == "resilient" else None
            stack = build_stack(provider, resilience=resilience)
            outcome = _drive_chaos(stack, prompts)
            outcome["faults_injected"] = provider.total_injected
            if side == "resilient":
                snapshot = stack.stats.snapshot()["resilience"]
                outcome["retries"] = snapshot["retries"]
                outcome["recoveries"] = snapshot["recoveries"]
                outcome["backoff_ms"] = snapshot["backoff_ms"]
                outcome["breaker_opens"] = snapshot["breaker_opens"]
                outcome["breaker_short_circuits"] = snapshot["breaker_short_circuits"]
                outcome["fallbacks"] = (
                    snapshot["fallback_model_answers"] + snapshot["fallback_cache_answers"]
                )
                outcome["exhausted"] = snapshot["exhausted"]
            cell[side] = outcome
        report.cells[ChaosReport.cell_name(rate)] = cell
    report.equivalence = _chaos_equivalence(equivalence_requests, seed)
    if write_path is not None:
        report.write(write_path)
    return report

