"""Stack composition: one call site to assemble a serving pipeline.

:func:`build_stack` wires the standard layer order

    cache → cascade → resilience → budget → metrics → client

installing only the layers asked for, and shares one
:class:`~repro.serving.stats.ServiceStats` across all of them. The result
is a :class:`ServingStack` — itself a
:class:`~repro.llm.provider.CompletionProvider`, so applications take it
anywhere they take a raw client. With no layers requested the stack is a
bare metrics observer over the client and behaves bit-identically to the
client itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.cache import SemanticCache
from repro.core.cascade import DEFAULT_CHAIN
from repro.durability import StackDurability
from repro.llm.client import Completion, UsageMeter
from repro.llm.provider import CompletionProvider
from repro.serving.middleware import (
    BudgetMiddleware,
    CascadeMiddleware,
    MetricsMiddleware,
    SemanticCacheMiddleware,
)
from repro.serving.resilience import ResilienceConfig, ResilienceMiddleware
from repro.serving.stats import ServiceStats


class ServingStack:
    """A composed middleware pipeline, usable anywhere a provider is.

    With ``build_stack(durable_dir=...)`` the stack additionally carries a
    :class:`~repro.durability.StackDurability`: every acknowledged request
    is journaled, :meth:`checkpoint` snapshots the full stateful surface
    (cache, meter, stats with the budget's spend) atomically, and
    :meth:`recover` — called automatically at build time — restores the
    last checkpoint and replays the journal to the exact pre-crash state.

    ``components`` names the stack's stateful components in snapshot order
    (``stats``, then ``cache`` and ``meter`` when the stack has them); a
    snapshot is each one's ``state_dict()`` under its name.
    """

    def __init__(
        self,
        provider: CompletionProvider,
        stats: ServiceStats,
        layers: Sequence[str],
        components: Dict[str, object],
    ) -> None:
        self.provider = provider
        self.stats = stats
        self.layers = list(layers)
        self.components = components
        self.durability = None  # set by build_stack(durable_dir=...)

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        completion = self.provider.complete(prompt, model=model)
        if self.durability is not None:
            self.durability.record_complete(prompt, model)
        return completion

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        completions = self.provider.complete_batch(shared_prefix, items, model=model)
        if self.durability is not None:
            self.durability.record_complete_batch(shared_prefix, items, model)
        return completions

    def embed(self, text: str) -> np.ndarray:
        return self.provider.embed(text)

    def begin_batch(self, prompts: Sequence[str], model: Optional[str] = None) -> None:
        """Forward a batch announcement to the layers (see
        :meth:`repro.serving.middleware.Middleware.begin_batch`). Not
        journaled — it changes no state the replay path depends on."""
        begin = getattr(self.provider, "begin_batch", None)
        if begin is not None:
            begin(prompts, model)

    def end_batch(self) -> None:
        end = getattr(self.provider, "end_batch", None)
        if end is not None:
            end()

    # ------------------------------------------------------------ durability

    def checkpoint(self) -> str:
        """Snapshot the stack's state to the durable directory (and absorb
        the journal). Requires ``build_stack(durable_dir=...)``."""
        if self.durability is None:
            raise ValueError("stack has no durable directory (build_stack(durable_dir=...))")
        return self.durability.checkpoint()

    def recover(self) -> int:
        """Restore the last checkpoint and replay the journal; returns the
        number of replayed requests. Runs automatically at build time —
        call it again only after externally replacing the durable files."""
        if self.durability is None:
            raise ValueError("stack has no durable directory (build_stack(durable_dir=...))")
        return self.durability.recover()

    def describe(self) -> str:
        """The layer chain, outermost first (e.g. for example scripts)."""
        return " -> ".join(self.layers)

    def report(self) -> str:
        return self.stats.render()


def _client_meter(client: object) -> Optional[UsageMeter]:
    """The usage meter of ``client``, or of the client a wrapper around it
    (a fault injector, a crash point) delegates to; None if it has none."""
    node: Optional[object] = client
    while node is not None:
        meter = getattr(node, "meter", None)
        if isinstance(meter, UsageMeter):
            return meter
        node = getattr(node, "inner", None)
    return None


def build_stack(
    client: CompletionProvider,
    *,
    cache: Union[SemanticCache, bool, None] = None,
    cache_key_fn: Optional[Callable[[str], str]] = None,
    chain: Optional[Sequence[str]] = None,
    decision_models: Optional[Sequence[object]] = None,
    budget_usd: Optional[float] = None,
    resilience: Union[ResilienceConfig, bool, None] = None,
    stats: Optional[ServiceStats] = None,
    durable_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    durable_sync: bool = False,
) -> ServingStack:
    """Assemble a serving stack over ``client`` with the requested layers.

    Parameters mirror the middleware constructors: pass ``cache=True`` (or
    a configured :class:`SemanticCache`) for the cache layer, a model
    ``chain`` (and optional ``decision_models``) for the cascade,
    ``budget_usd`` for the spend ceiling, and ``resilience=True`` (or a
    :class:`~repro.serving.resilience.ResilienceConfig`) for the one retry
    loop — backoff retries, per-model circuit breakers, the
    graceful-degradation fallback chain and, with
    ``ResilienceConfig(validator=...)``, redraws of rejected completions
    (output validation, III-E). When both the cache and
    resilience layers are installed, the resilience layer's last-resort
    fallback reads (without mutating) the same semantic cache. The metrics
    layer is always installed so ``stats`` reflects the terminal traffic.

    ``durable_dir`` makes the stack's state survive restarts: requests are
    journaled there, ``checkpoint_every=N`` auto-snapshots after every N
    requests (``stack.checkpoint()`` does it on demand), and if the
    directory already holds state from a previous run it is **recovered
    before the first request** — warm-starting the cache, the usage meter
    and stats (budget spend included) to the exact pre-crash values (see :mod:`repro.durability`).
    Recovery requires rebuilding with the same layer composition and
    component configuration as the run that wrote the state. Recovered
    state equals live state only when **one worker** drives the stack.
    Under a multi-worker scheduler the journal stays consistent, but it
    records requests in the order they finished, and serial replay in that
    order lets a request hit an entry that, live, a concurrent request had
    not put yet: cache, meter, stats and spend then differ from the live run.
    ``durable_sync=True`` additionally fsyncs every journal append and
    snapshot (real-crash durability at a latency cost).
    """
    stats = stats if stats is not None else ServiceStats()
    cache_obj: Optional[SemanticCache] = None
    if isinstance(cache, SemanticCache):
        cache_obj = cache
    elif cache is not None and cache is not False:
        cache_obj = SemanticCache()
    layers: List[str] = [type(client).__name__, "metrics"]
    provider: CompletionProvider = MetricsMiddleware(client, stats=stats)
    if budget_usd is not None:
        provider = BudgetMiddleware(provider, budget_usd, stats=stats)
        layers.append("budget")
    if resilience:
        provider = ResilienceMiddleware(
            provider,
            config=resilience if isinstance(resilience, ResilienceConfig) else None,
            fallback_cache=cache_obj,
            cache_key_fn=cache_key_fn,
            stats=stats,
        )
        layers.append("resilience")
    if chain is not None or decision_models is not None:
        provider = CascadeMiddleware(
            provider,
            chain=chain if chain is not None else DEFAULT_CHAIN,
            decision_models=decision_models,
            stats=stats,
        )
        layers.append("cascade")
    if cache_obj is not None:
        provider = SemanticCacheMiddleware(
            provider,
            cache=cache_obj,
            key_fn=cache_key_fn,
            stats=stats,
        )
        layers.append("cache")
    components: Dict[str, object] = {"stats": stats}
    if cache_obj is not None:
        components["cache"] = cache_obj
    meter = _client_meter(client)
    if meter is not None:
        components["meter"] = meter
    stack = ServingStack(provider, stats, list(reversed(layers)), components)
    if durable_dir is not None:
        stack.durability = StackDurability(
            stack, durable_dir, checkpoint_every=checkpoint_every, sync=durable_sync
        )
        stack.recover()
    elif checkpoint_every is not None:
        raise ValueError("checkpoint_every requires durable_dir")
    return stack
