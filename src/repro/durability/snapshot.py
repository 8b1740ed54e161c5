"""The versioned snapshot of a serving stack's state.

Each stateful component turns its own state into plain JSON data with a
``state_dict()`` / ``load_state()`` pair placed next to the fields it
covers: :class:`~repro.serving.stats.ServiceStats` (every counter, the
latency histograms, the budget's spend and each per-tenant namespace),
:class:`~repro.core.cache.SemanticCache` (entries with their completions,
stats, clock and the admission predictor's history; embeddings are
re-derived from the keys on load) and :class:`~repro.llm.client.UsageMeter`.
``build_stack`` registers the ones a stack has, in that order, as
``stack.components``.

:func:`snapshot_stack_state` walks that registry, and
:func:`restore_stack_state` loads each section into the component
registered under its name. The payload also pins the schema and the
stack's layer shape. Payloads written before cache entries carried their
completions keep them in a separate ``replay`` section, and older ones
also carry a ``budget`` section; restore upgrades both.

All payloads are plain JSON. Python's ``json`` round-trips floats through
``repr`` (shortest exact representation), so every float restores to the
identical IEEE-754 double — the bit-identity the recovery benchmark
asserts end to end.
"""

from __future__ import annotations

import copy
from typing import Dict

SNAPSHOT_SCHEMA = "repro.durability/v1"


def snapshot_stack_state(stack: object) -> Dict[str, object]:
    """Snapshot every stateful component a serving stack registered.

    The payload's ``state`` section holds one sub-document per component,
    under its registered name. The ``layers`` list pins the stack shape so
    recovery into a differently-composed stack fails loudly instead of
    silently dropping state.
    """
    components: Dict[str, object] = stack.components  # type: ignore[attr-defined]
    return {
        "schema": SNAPSHOT_SCHEMA,
        "layers": list(stack.layers),  # type: ignore[attr-defined]
        "state": {name: component.state_dict() for name, component in components.items()},  # type: ignore[attr-defined]
    }


def _upgrade(state: Dict[str, object]) -> Dict[str, object]:
    """Today's ``state`` section from any v1 one. Older payloads keep the
    completions in a ``replay`` section: each goes onto the entry that
    still holds its text, never a refreshed one. Their ``budget`` section
    is dropped: the ``stats`` section holds the same spend."""
    state = dict(state)
    state.pop("budget", None)
    replay: Dict[str, Dict[str, object]] = state.pop("replay", {})  # type: ignore[assignment]
    if replay and "cache" in state:
        cache = dict(state["cache"])  # type: ignore[call-overload]
        cache["entries"] = [
            {**stored, "completion": replay[stored["key"]]}
            if replay.get(stored["key"], {}).get("text") == stored["response"]
            else stored
            for stored in cache["entries"]
        ]
        state["cache"] = cache
    return state


def restore_stack_state(stack: object, payload: Dict[str, object]) -> None:
    """Load a :func:`snapshot_stack_state` payload into a freshly built
    stack of the same composition. A section whose component the stack
    did not register raises."""
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unknown snapshot schema: {payload.get('schema')!r}")
    # The last entry is the terminal client's class name. It is stateless
    # and allowed to differ — recovering after a CrashPoint-injected run
    # rebuilds over a plain client — so only the middleware shape is pinned.
    snap_layers = list(payload.get("layers", []))  # type: ignore[call-overload]
    if snap_layers[:-1] != list(stack.layers)[:-1]:  # type: ignore[attr-defined]
        raise ValueError(
            f"snapshot was taken of a {snap_layers} stack but the "
            f"live stack is {stack.layers} — rebuild with the same layers"  # type: ignore[attr-defined]
        )
    components: Dict[str, object] = stack.components  # type: ignore[attr-defined]
    state = _upgrade(payload["state"])  # type: ignore[arg-type]
    for name in state:
        if name not in components:
            raise ValueError(f"snapshot has {name} state but the stack has no {name}")
    for name, component in components.items():
        if name in state:
            component.load_state(state[name])  # type: ignore[attr-defined]


_COMPARABLE_DROP = ("cache_lookup_ms", "cache_put_ms")


def comparable_state(payload: Dict[str, object]) -> Dict[str, object]:
    """The deterministic portion of a stack snapshot, for equality checks.

    Almost everything in a snapshot is a pure function of the request
    stream; the exceptions are the two wall-clock counters the cache
    middleware measures (``cache_lookup_ms`` / ``cache_put_ms``), which
    this strips so crashed-and-recovered runs can be compared bit for bit
    against uncrashed ones. The terminal client's class name (the last
    ``layers`` entry) is normalized for the same reason: a fault-injected
    run wraps the client in :class:`~repro.llm.faults.CrashPoint` but its
    state is identical to a plain client's.
    """
    out = copy.deepcopy(payload)
    layers = out.get("layers")
    if isinstance(layers, list) and layers:
        layers[-1] = "<client>"
    stats: Dict[str, object] = out.get("state", {}).get("stats", {})  # type: ignore[union-attr]
    for field in _COMPARABLE_DROP:
        stats.pop(field, None)
    return out
