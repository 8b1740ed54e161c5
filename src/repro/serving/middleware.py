"""The middleware layers of the serving stack.

Each middleware both consumes and implements
:class:`~repro.llm.provider.CompletionProvider`, so layers compose in any
order over any terminal provider (normally a raw
:class:`~repro.llm.client.LLMClient`). Layers adapt the Section III
optimizations that previously each wrapped the client ad hoc:

* :class:`SemanticCacheMiddleware` — the semantic cache (III-C) in front of
  everything: *reuse* hits short-circuit the rest of the stack, *augment*
  hits enrich the prompt with the cached pair as an extra example.
* :class:`CascadeMiddleware` — the cheap→expensive model cascade (III-B1);
  requests that name an explicit model bypass routing.
* :class:`~repro.serving.resilience.ResilienceMiddleware` — the one retry
  loop: transient failures and, through ``ResilienceConfig.validator``,
  output validation feedback (III-E) — rejected completions are re-drawn
  deterministically through a seed-shifted sibling provider.
* :class:`BudgetMiddleware` — a dollar ceiling across the whole stack
  (III-B's cost control at the serving seam rather than per client).
* :class:`MetricsMiddleware` — the terminal observer recording every
  request that actually reaches the LLM service.

All layers write their counters into one shared
:class:`~repro.serving.stats.ServiceStats`, holding its lock around each
update so a stack can be driven from many threads at once (see
:mod:`repro.serving.scheduler`). The budget layer keeps no state of its
own: its spend is a stats counter. Nor does the cache layer: a reuse hit
replays the completion its cache entry carries. The hot structures —
:class:`~repro.core.cache.SemanticCache`, the admission predictor, the
embedding memo, the usage meter — are locked where they live.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheEntry, SemanticCache
from repro.core.cascade import DEFAULT_CHAIN, CascadeClient
from repro.errors import BudgetExceededError
from repro.llm.client import Completion, Usage
from repro.llm.provider import CompletionProvider
from repro.serving.stats import ServiceStats


def last_question_key(prompt: str) -> str:
    """Cache key extractor for the templated prompts of
    :mod:`repro.core.prompts.templates`: the trailing ``Question: ...``
    line, i.e. the bare question without context passages or examples.
    Falls back to the whole prompt when no marker is present."""
    marker = "\nQuestion: "
    if marker in prompt:
        return prompt.rsplit(marker, 1)[-1]
    if prompt.startswith("Question: "):
        return prompt[len("Question: "):]
    return prompt


# The cache-aside step (probe, then replay a reuse hit at zero cost or
# augment the prompt with the cached pair), written once for both
# cache-fronted tiers: SemanticCacheMiddleware and ServingCluster._serve.


def counted_probe(lookup: Callable[..., object], args: Tuple, sections: Sequence[ServiceStats]):
    """Run ``lookup(*args)`` and count its tier and wall time in every
    stats section (a stack has one; the cluster adds the tenant's).

    The result needs ``tier`` and ``entry`` — :class:`~repro.core.cache.CacheLookup`
    and :class:`~repro.serving.cluster.ClusterLookup` both qualify."""
    probe_start = time.perf_counter()
    found = lookup(*args)
    probe_ms = (time.perf_counter() - probe_start) * 1000.0
    tier = found.tier if found.entry is not None else "miss"
    for section in sections:
        with section.lock:
            section.cache_lookups += 1
            section.cache_lookup_ms += probe_ms
            if tier == "reuse":
                section.cache_reuse_hits += 1
                section.cache_cost_saved += found.entry.cost_of_miss
            elif tier == "augment":
                section.cache_augment_hits += 1
            else:
                section.cache_misses += 1
    return found


def augmented_prompt(entry: CacheEntry, prompt: str) -> str:
    """The paper's case (2): the cached (query, response) pair rides along
    as an extra example in front of the new prompt."""
    return f"Example: Question: {entry.key} Answer: {entry.response}\n" + prompt


def cached_completion(
    text: str,
    metadata: Mapping[str, object],
    *,
    original: Optional[Completion] = None,
    latency_ms: float = 0.0,
    confidence: float = 1.0,
    engine: str = "cache",
) -> Completion:
    """The zero-cost completion for an answer served from a cache.

    With the ``original`` completion at hand it is replayed in full (model,
    confidence, engine) with usage and cost zeroed and ``metadata`` merged
    over its own; otherwise a minimal completion is synthesized from the
    cached ``text``."""
    usage = Usage(prompt_tokens=0, completion_tokens=0)
    if original is not None:
        return original.with_usage(
            usage, 0.0, latency_ms=latency_ms, metadata={**original.metadata, **metadata}
        )
    return Completion(
        text=text,
        model="cache",
        usage=usage,
        cost=0.0,
        latency_ms=latency_ms,
        confidence=confidence,
        engine=engine,
        metadata=dict(metadata),
    )


class Middleware:
    """Base layer: delegates the full provider surface to ``inner``."""

    def __init__(self, inner: CompletionProvider, stats: Optional[ServiceStats] = None) -> None:
        self.inner = inner
        self.stats = stats if stats is not None else ServiceStats()

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        return self.inner.complete(prompt, model=model)

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        return self.inner.complete_batch(shared_prefix, items, model=model)

    def embed(self, text: str) -> np.ndarray:
        return self.inner.embed(text)

    def begin_batch(self, prompts: Sequence[str], model: Optional[str] = None) -> None:
        """Amortization hook: a caller announces the prompts of a batch
        it is about to complete one by one on this thread. Layers may precompute shared
        work (batched embeddings, cache probes) for the *calling thread*;
        the per-request ``complete`` results must be unchanged. Forwarded
        down the stack; pure optimization, never required."""
        begin = getattr(self.inner, "begin_batch", None)
        if begin is not None:
            begin(prompts, model)

    def end_batch(self) -> None:
        """Release any per-thread state installed by :meth:`begin_batch`."""
        end = getattr(self.inner, "end_batch", None)
        if end is not None:
            end()

    def reseeded(self, offset: int) -> "Middleware":
        """A sibling layer over the seed-shifted inner provider. Mutable
        layer state (cache entries, counters) is shared, not copied."""
        clone = copy.copy(self)
        if hasattr(self.inner, "reseeded"):
            clone.inner = self.inner.reseeded(offset)
        return clone


class SemanticCacheMiddleware(Middleware):
    """The semantic cache as a stack layer (adapts ``core/cache.py``).

    A *reuse* hit returns the cached completion with zero cost and latency,
    never touching the layers below. An *augment* hit prepends the cached
    (query, response) pair to the prompt as an extra example — the paper's
    case (2) — and forwards. ``key_fn`` maps the full prompt to the cache
    key (e.g. :func:`last_question_key` to make matching robust to prompt
    framing); it defaults to the identity.

    Batched completions bypass the cache: a shared-prefix batch is already
    a cost optimization and its items are new by construction.
    """

    def __init__(
        self,
        inner: CompletionProvider,
        cache: Optional[SemanticCache] = None,
        key_fn: Optional[Callable[[str], str]] = None,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        super().__init__(inner, stats)
        self.cache = cache if cache is not None else SemanticCache()
        self.key_fn = key_fn

    def begin_batch(self, prompts: Sequence[str], model: Optional[str] = None) -> None:
        """Precompute this batch's cache probes in one matrix pass.

        All batch keys are embedded with a single ``embed_batch`` sweep and
        scored against the cache index with one matrix-matrix product; the
        per-request ``complete`` calls on this thread then reuse the
        precomputed winners (merged exactly with any concurrent inserts —
        see :meth:`SemanticCache.batch_probe`). The admission predictor's
        embedder memo is warmed the same way, so its later per-key embeds
        are memo hits. Results are bit-identical to unbatched serving."""
        keys = [
            self.key_fn(p) if self.key_fn is not None else p for p in prompts
        ]
        self.cache.batch_probe(keys)
        if self.cache.admission is not None:
            self.cache.admission.embedder.embed_batch(list(dict.fromkeys(keys)))
        super().begin_batch(prompts, model)

    def end_batch(self) -> None:
        self.cache.end_probe()
        super().end_batch()

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        key = self.key_fn(prompt) if self.key_fn is not None else prompt
        lookup = counted_probe(self.cache.lookup, (key,), (self.stats,))
        entry = lookup.entry
        if lookup.tier == "reuse" and entry is not None:
            return cached_completion(
                entry.response,
                {"serving.cache": {"tier": "reuse", "similarity": round(lookup.similarity, 6)}},
                original=entry.completion,
            )
        effective_prompt = prompt
        if lookup.tier == "augment" and entry is not None:
            effective_prompt = augmented_prompt(entry, prompt)
        completion = self.inner.complete(effective_prompt, model=model)
        put_start = time.perf_counter()
        self.cache.put(key, completion.text, cost=completion.cost, completion=completion)
        put_ms = (time.perf_counter() - put_start) * 1000.0
        with self.stats.lock:
            self.stats.cache_put_ms += put_ms
        return completion


class CascadeMiddleware(Middleware):
    """The LLM cascade as a stack layer (adapts ``core/cascade.py``).

    Default-model requests route through the cheap→expensive chain exactly
    like :class:`~repro.core.cascade.CascadeClient`; the returned completion
    is the accepted one with usage, cost and latency summed over every
    attempted stage, so outer layers (budget, cache) account the cascade's
    true price. Requests naming an explicit model bypass routing.
    """

    def __init__(
        self,
        inner: CompletionProvider,
        chain: Sequence[str] = DEFAULT_CHAIN,
        decision_models: Optional[Sequence[object]] = None,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        super().__init__(inner, stats)
        self._cascade = CascadeClient(inner, chain=chain, decision_models=decision_models)

    @property
    def chain(self) -> List[str]:
        return self._cascade.chain

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        if model is not None:
            return self.inner.complete(prompt, model=model)
        result = self._cascade.complete(prompt)
        with self.stats.lock:
            self.stats.cascade_requests += 1
            self.stats.escalations += result.escalations
            self.stats.answered_by[result.model] = (
                self.stats.answered_by.get(result.model, 0) + 1
            )
        final = result.final
        metadata = dict(final.metadata)
        metadata["serving.cascade"] = {
            "escalations": result.escalations,
            "attempts": [attempt.model for attempt in result.attempts],
        }
        return final.with_usage(
            Usage(
                prompt_tokens=sum(a.usage.prompt_tokens for a in result.attempts),
                completion_tokens=sum(a.usage.completion_tokens for a in result.attempts),
            ),
            result.cost,
            latency_ms=result.latency_ms,
            metadata=metadata,
        )

    def reseeded(self, offset: int) -> "CascadeMiddleware":
        clone = super().reseeded(offset)
        clone._cascade = CascadeClient(
            clone.inner, chain=list(self._cascade.chain), decision_models=self._cascade.decision_models
        )
        return clone


class BudgetMiddleware(Middleware):
    """A dollar ceiling over everything below this layer.

    The stack cannot know a call's price before running it (that is the
    terminal client's own pre-call check), so the ceiling is enforced
    *between* calls: once the observed spend reaches ``budget_usd``,
    further requests raise :class:`~repro.errors.BudgetExceededError`. At
    most one call per in-flight thread can overshoot, by at most its own
    cost (the check is locked, but it cannot cover a call whose price is
    unknown until it returns).

    A budget is per stats section: the spend is
    ``stats.budget_spent_usd``, checked and charged under ``stats.lock``.
    Every ``reseeded`` sibling shares the stats object, so redraws through
    a seed-shifted clone (the resilience layer's retries, for either
    trigger) charge the *same* number, and a snapshot of the stats carries it.
    """

    def __init__(
        self,
        inner: CompletionProvider,
        budget_usd: float,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        if budget_usd < 0:
            raise ValueError("budget_usd must be non-negative")
        super().__init__(inner, stats)
        self.budget_usd = budget_usd
        self.stats.budget_limit_usd = budget_usd

    @property
    def spent_usd(self) -> float:
        return self.stats.budget_spent_usd

    def remaining(self) -> float:
        with self.stats.lock:
            return max(0.0, self.budget_usd - self.stats.budget_spent_usd)

    def _check(self) -> None:
        with self.stats.lock:
            spent = self.stats.budget_spent_usd
            if spent >= self.budget_usd:
                self.stats.budget_rejections += 1
                raise BudgetExceededError(
                    f"serving budget ${self.budget_usd:.4f} exhausted "
                    f"(spent ${spent:.4f})"
                )

    def _charge(self, cost: float) -> None:
        with self.stats.lock:
            self.stats.budget_spent_usd += cost

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        self._check()
        completion = self.inner.complete(prompt, model=model)
        self._charge(completion.cost)
        return completion

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        self._check()
        completions = self.inner.complete_batch(shared_prefix, items, model=model)
        self._charge(sum(completion.cost for completion in completions))
        return completions


class MetricsMiddleware(Middleware):
    """The terminal observer: records every request that reaches the LLM.

    Sits directly above the terminal client, below every optimization, so
    its counters measure what the service actually billed — cache hits and
    budget rejections never show up here, cascade attempts all do.
    """

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        completion = self.inner.complete(prompt, model=model)
        self.stats.record_llm_call(
            completion.model, completion.usage, completion.cost, completion.latency_ms
        )
        return completion

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        completions = self.inner.complete_batch(shared_prefix, items, model=model)
        for completion in completions:
            self.stats.record_llm_call(
                completion.model, completion.usage, completion.cost, completion.latency_ms
            )
        return completions
