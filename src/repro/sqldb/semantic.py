"""The semantic-operator runtime: how the SQL engine talks to the LLM.

This is the bridge between :mod:`repro.sqldb` and the serving side of the
library (the top open item of ROADMAP.md). The executor never calls a
provider directly; it renders each semantic operator into a prompt with
the fixed templates below and asks a :class:`SemanticRuntime` to answer.

The runtime has two modes:

* **optimized** (default) — set-at-a-time: the executor prefetches all of
  an operator's row prompts at once; the runtime dedupes them, consults a
  :class:`~repro.core.cache.SemanticCache` in exact-match mode,
  and dispatches the misses as ONE ``complete_batch`` call whose shared
  prefix (instruction + predicate text) is metered once. Per-row
  evaluation afterwards reads them back uncounted: a cache hit is an
  answer an earlier statement paid for.
* **naive** (:meth:`SemanticRuntime.naive`) — the reference evaluator:
  one ``complete`` per row, no dedupe, no cache, no batching.

**Bit-equivalence guarantee.** Both modes build byte-identical prompts,
and the simulated provider's completions are pure functions of
``(seed, model, prompt)``; ``complete_batch(prefix, items)`` answers each
item exactly as ``complete(prefix + item)`` (only token metering
differs). The runtime's cache has both thresholds at 1.0, which makes it
an exact-match cache: a hit is decided by string equality of the prompt,
never by embedding similarity (prompts that differ only in case or
punctuation share one embedding, so a similarity of 1.0 would not be
enough), and it can therefore only return the text the provider itself
produced for that exact prompt. Hence the optimized plan returns
bit-identical rows to the naive one — ``benchmarks/bench_semantic_sql.py``
enforces this on every run. A caller-supplied cache with lower thresholds
trades this guarantee for similarity reuse.

Latency accounting: the runtime charges a simulated
``CALL_OVERHEAD_MS + PER_ITEM_MS * items`` per provider call (mirroring
:class:`repro.bench.perf.SimulatedServiceProvider`'s cost model without
sleeping), so benchmarks can compare plans deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.cache import SemanticCache
    from repro.llm.provider import CompletionProvider

#: Semantic operators default to the strongest simulated model: per-call
#: cost dwarfs per-token cost, so there is no cascade to climb.
DEFAULT_SEMANTIC_MODEL = "gpt-4"

# Per-call latency model (also used by the planner's cost model): one
# provider round-trip costs orders of magnitude more than a row scan.
CALL_OVERHEAD_MS = 45.0
PER_ITEM_MS = 6.0

# --- prompt templates ------------------------------------------------------
#
# Fixed so that (a) the matching repro.llm.engines recognize them and
# (b) every prompt of one operator shares a long common prefix — the
# instruction and predicate come first, the row value last — which is what
# complete_batch's shared-prefix amortization monetizes.

_FILTER_TEMPLATE = (
    "Decide whether the value satisfies the predicate. Answer yes or no.\n"
    "Predicate: {predicate}\n"
    "Value: {value}\n"
    "Answer:"
)

_MATCH_TEMPLATE = (
    "Are the following two entity descriptions the same real-world entity? "
    "Answer yes or no.\n"
    "Entity A: {left}\n"
    "Entity B: {right}\n"
    "Answer:"
)

_CLASSIFY_TEMPLATE = (
    "Classify the value using one of the following column types: {labels}.\n"
    "{value}, this column type is __.\n"
    "Answer:"
)

_EXTRACT_TEMPLATE = (
    "Extract the {field} from the record. Answer with only the value.\n"
    "Record: {value}\n"
    "Answer:"
)


def render_value(value: object) -> str:
    """Render a SQL value for prompt embedding (newline-free: the prompt
    templates are line-oriented and both evaluation modes must agree)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return " ".join(str(value).split())


def filter_prompt(predicate: str, value: object) -> str:
    return _FILTER_TEMPLATE.format(predicate=predicate, value=render_value(value))


def match_prompt(left: object, right: object) -> str:
    return _MATCH_TEMPLATE.format(left=render_value(left), right=render_value(right))


def classify_prompt(value: object, labels: Sequence[str]) -> str:
    return _CLASSIFY_TEMPLATE.format(
        labels=", ".join(labels), value=render_value(value)
    )


def extract_prompt(value: object, field_name: str) -> str:
    return _EXTRACT_TEMPLATE.format(field=field_name, value=render_value(value))


def truthy_answer(text: str) -> bool:
    """Interpret a yes/no completion as a SQL boolean."""
    return text.strip().lower().startswith("y")


@dataclass
class SemanticStats:
    """What the runtime did — the benchmark's raw material."""

    prompts: int = 0  # prompts asked, once per prefetch or row (incl. cache hits)
    provider_calls: int = 0  # complete / complete_batch calls issued
    provider_items: int = 0  # prompts actually sent to the provider
    batches: int = 0  # complete_batch calls among provider_calls
    cache_hits: int = 0  # answered from the semantic cache
    simulated_ms: float = 0.0  # per-call latency model, no sleeping


class SemanticRuntime:
    """Answers semantic-operator prompts through a completion provider.

    Parameters
    ----------
    provider:
        Any :class:`~repro.llm.provider.CompletionProvider` — the raw
        client (default), a composed :class:`~repro.serving.ServingStack`,
        or anything in between.
    cache:
        A :class:`~repro.core.cache.SemanticCache`; defaults to an
        exact-match cache (both thresholds 1.0). It carries answers from
        one statement to the next.

    ``batch`` reads ``True`` (optimized: dedupe + cache + one
    ``complete_batch`` per prefetch) except on the :meth:`naive`
    reference, which makes one ``complete`` per prompt, in row order,
    nothing shared.
    """

    def __init__(
        self,
        provider: Optional["CompletionProvider"] = None,
        *,
        cache: Optional["SemanticCache"] = None,
        model: str = DEFAULT_SEMANTIC_MODEL,
    ) -> None:
        self._provider = provider
        self._cache = cache
        self.model = model
        self.batch = True
        self.stats = SemanticStats()

    @classmethod
    def naive(
        cls,
        provider: Optional["CompletionProvider"] = None,
        *,
        model: str = DEFAULT_SEMANTIC_MODEL,
    ) -> "SemanticRuntime":
        """The per-row reference evaluator: no batching, no cache."""
        runtime = cls(provider, model=model)
        runtime.batch = False
        return runtime

    # ---------------------------------------------------------- construction

    @property
    def provider(self) -> "CompletionProvider":
        if self._provider is None:
            from repro.llm.provider import make_client

            self._provider = make_client(model=self.model)
        return self._provider

    @property
    def cache(self) -> Optional["SemanticCache"]:
        if not self.batch:
            return self._cache
        if self._cache is None:
            from repro.core.cache import SemanticCache

            # Both thresholds 1.0 = key equality, no vectors: what the
            # bit-equivalence guarantee requires (see module docstring).
            self._cache = SemanticCache(
                capacity=4096, reuse_threshold=1.0, augment_threshold=1.0
            )
        return self._cache

    def hit_rate(self) -> float:
        """Observed cache hit rate — the planner's discount estimate."""
        cache = self._cache
        return cache.stats.hit_rate if cache is not None else 0.0

    # ------------------------------------------------------------- answering

    def answer(self, prompt: str) -> str:
        """Answer one prompt (per-row path; hits the cache when batched)."""
        return self.answer_many([prompt])[0]

    def prefetch(self, prompts: Sequence[str]) -> List[str]:
        """Set-at-a-time entry point: answer ``prompts`` with (at most)
        one provider batch, warming the cache. No-op returning ``[]`` in
        naive mode."""
        if self.batch and prompts:
            return self.answer_many(list(prompts))
        return []

    def answer_many(self, prompts: List[str]) -> List[str]:
        self.stats.prompts += len(prompts)
        if not self.batch:
            return [self._dispatch([p])[0].text for p in prompts]

        cache = self.cache
        assert cache is not None
        answers: Dict[str, str] = {}
        misses: Dict[str, None] = {}  # insertion-ordered: dispatch order
        for prompt in prompts:
            if prompt in answers or prompt in misses:
                continue  # in-flight dedupe: identical prompts, one answer
            lookup = cache.lookup(prompt)
            if lookup.tier == "reuse" and lookup.entry is not None:
                answers[prompt] = lookup.entry.response
                self.stats.cache_hits += 1
            else:
                misses[prompt] = None
        if misses:
            for prompt, completion in zip(misses, self._dispatch(list(misses))):
                answers[prompt] = completion.text
                cache.put(prompt, completion.text, cost=completion.cost)
        return [answers[p] for p in prompts]

    def _dispatch(self, misses: List[str]):
        """One provider round-trip: a batch for several prompts (the deduped
        cache misses), a plain ``complete`` for one (every naive-mode row)."""
        if len(misses) > 1:
            from repro.serving.scheduler import shared_prefix

            prefix = shared_prefix(misses)
            completions = self.provider.complete_batch(
                prefix, [p[len(prefix) :] for p in misses], model=self.model
            )
            self._charge(len(misses), batched=True)
            return completions
        self._charge(1, batched=False)
        return [self.provider.complete(misses[0], model=self.model)]

    def _charge(self, items: int, batched: bool) -> None:
        self.stats.provider_calls += 1
        self.stats.provider_items += items
        if batched:
            self.stats.batches += 1
        self.stats.simulated_ms += CALL_OVERHEAD_MS + PER_ITEM_MS * items

    # --------------------------------------------------------------- metrics

    def snapshot(self) -> SemanticStats:
        """A copy of the counters, for a later :meth:`delta`."""
        return replace(self.stats)

    def delta(self, since: SemanticStats) -> SemanticStats:
        s = self.stats
        return SemanticStats(
            prompts=s.prompts - since.prompts,
            provider_calls=s.provider_calls - since.provider_calls,
            provider_items=s.provider_items - since.provider_items,
            batches=s.batches - since.batches,
            cache_hits=s.cache_hits - since.cache_hits,
            simulated_ms=s.simulated_ms - since.simulated_ms,
        )
