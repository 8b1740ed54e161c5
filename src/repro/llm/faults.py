"""Deterministic fault injection for any completion provider.

The simulated LLM service never fails, so the serving stack's failure
handling (:mod:`repro.serving.resilience`) would otherwise be untestable
and unbenchmarkable. :class:`FaultInjectingProvider` wraps any
:class:`~repro.llm.provider.CompletionProvider` and injects
:class:`~repro.errors.TransientLLMError` subclasses — rate limits,
timeouts, unavailability — from a seeded per-request RNG at configurable
per-model rates.

Faults follow the library's determinism contract: whether a given
``(seed, model, prompt)`` request faults, and with which error, is a pure
function of that triple — replaying a workload replays its faults.
``reseeded(offset)`` shifts the fault stream together with the inner
provider's completion stream, which is what lets a retry through a
reseeded sibling draw a *fresh* fault uniform and (usually) succeed.

Injected errors carry a simulated ``latency_ms`` (the time the doomed
attempt burned: a timeout costs the full deadline, a rate-limit rejection
is near-instant), so resilience layers can account failure time into
end-to-end latency without sleeping.

:class:`CrashPoint` injects a different failure class entirely: a
deterministic *process death* at a chosen request index
(:class:`~repro.errors.SimulatedCrashError`, which the resilience layer
deliberately does not catch). It drives the crash-recovery sweep in
``benchmarks/bench_perf_recovery.py`` against :mod:`repro.durability`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro._util import stable_hash
from repro.errors import (
    RateLimitError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    SimulatedCrashError,
)
from repro.llm.client import Completion

#: Injectable fault kinds with the simulated milliseconds each one burns.
FAULT_KINDS: List[tuple] = [
    (RateLimitError, 5.0),  # rejected at the front door: near-instant
    (ServiceTimeoutError, 1000.0),  # burned the whole request deadline
    (ServiceUnavailableError, 50.0),  # connection refused / 503 after TLS
]


def resolve_model_name(provider: object, model: Optional[str]) -> str:
    """The model a request will hit: the explicit ``model`` argument, else
    the wrapped terminal client's default. Middleware layers delegate via
    ``inner``, so walk the chain until something carries a default."""
    if model is not None:
        return model
    node = provider
    while node is not None:
        default = getattr(node, "default_model", None)
        if default is not None:
            return getattr(default, "name", str(default))
        node = getattr(node, "inner", None)
    return "default"


class FaultInjectingProvider:
    """Wrap a provider; fail a deterministic fraction of its requests.

    Parameters
    ----------
    inner:
        The provider that answers the requests that survive injection.
    rates:
        Per-model fault probabilities, e.g. ``{"gpt-4": 0.15}``. Models not
        listed fall back to ``default_rate``.
    default_rate:
        Fault probability for models without an explicit rate.
    seed:
        Shifts the fault stream (independently of the completion stream's
        seed, but reseeded in lockstep by :meth:`reseeded`).
    """

    def __init__(
        self,
        inner: "object",
        rates: Optional[Dict[str, float]] = None,
        default_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if default_rate < 0.0 or default_rate > 1.0:
            raise ValueError("default_rate must be in [0, 1]")
        for name, rate in (rates or {}).items():
            if rate < 0.0 or rate > 1.0:
                raise ValueError(f"rate for {name!r} must be in [0, 1]")
        self.inner = inner
        self.rates = dict(rates or {})
        self.default_rate = default_rate
        self.seed = seed
        # Injection tally, per error class name. Shared (same dict object)
        # across reseeded siblings so a whole retry tree counts in one place.
        self.injected: Dict[str, int] = {}
        self._injected_lock = threading.Lock()

    # ------------------------------------------------------------ injection

    def rate_for(self, model: str) -> float:
        return self.rates.get(model, self.default_rate)

    def _maybe_inject(self, request_key: str, model: str) -> None:
        rate = self.rate_for(model)
        if rate <= 0.0:
            return
        h = stable_hash(f"fault|{self.seed}|{model}|{request_key}")
        rng = np.random.default_rng(h)
        if float(rng.random()) >= rate:
            return
        kind, latency_ms = FAULT_KINDS[int(rng.integers(0, len(FAULT_KINDS)))]
        with self._injected_lock:
            self.injected[kind.__name__] = self.injected.get(kind.__name__, 0) + 1
        raise kind(
            f"injected {kind.__name__} for model {model}",
            model=model,
            latency_ms=latency_ms,
        )

    @property
    def total_injected(self) -> int:
        with self._injected_lock:
            return sum(self.injected.values())

    # ------------------------------------------------------------ provider API

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        self._maybe_inject(prompt, resolve_model_name(self.inner, model))
        return self.inner.complete(prompt, model=model)

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        # One combined request, one fault draw: the whole batch fails or none.
        key = "batch|" + shared_prefix + "|" + "|".join(items)
        self._maybe_inject(key, resolve_model_name(self.inner, model))
        return self.inner.complete_batch(shared_prefix, items, model=model)

    def embed(self, text: str) -> np.ndarray:
        return self.inner.embed(text)

    def reseeded(self, offset: int) -> "FaultInjectingProvider":
        """A sibling whose fault *and* completion streams are shifted by
        ``offset``; the injection tally stays shared."""
        sibling = FaultInjectingProvider.__new__(FaultInjectingProvider)
        sibling.inner = (
            self.inner.reseeded(offset) if hasattr(self.inner, "reseeded") else self.inner
        )
        sibling.rates = self.rates
        sibling.default_rate = self.default_rate
        sibling.seed = self.seed + offset
        sibling.injected = self.injected
        sibling._injected_lock = self._injected_lock
        return sibling


class CrashPoint:
    """Deterministic kill-switch: the request at index ``crash_at`` dies.

    Wraps any provider and counts requests (a shared-prefix batch counts
    as one, mirroring :class:`FaultInjectingProvider`'s one-draw-per-batch
    rule). The request whose zero-based index equals ``crash_at`` raises
    :class:`~repro.errors.SimulatedCrashError` *before* reaching the inner
    provider — the analogue of the process dying mid-request, after any
    outer layers have already mutated their state but before the request
    was acknowledged or journaled.

    The crash fires exactly once: a driver that catches the error,
    discards its stack and rebuilds from durable state can keep using the
    same wrapped client for the resumed run (the counter keeps advancing,
    the crash does not re-fire). :meth:`seeded` derives the crash index
    from a seed the way the transient faults derive their draws, so crash
    sweeps randomize reproducibly.

    The counter and the fired flag are shared by ``reseeded`` siblings —
    a retry redraw belongs to the same simulated process.
    """

    def __init__(self, inner: "object", crash_at: Optional[int] = None) -> None:
        if crash_at is not None and crash_at < 0:
            raise ValueError("crash_at must be non-negative (or None to disarm)")
        self.inner = inner
        self.crash_at = crash_at
        # One-slot holders so reseeded siblings share the request counter
        # and the fired flag (copy.copy shares the holders, not the values).
        self._count = {"value": 0}
        self._fired = {"value": False}
        self._lock = threading.Lock()

    @classmethod
    def seeded(cls, inner: "object", n_requests: int, seed: int = 0) -> "CrashPoint":
        """A crash point whose index is a seeded draw in ``[0, n_requests)``
        — deterministic in ``seed``, like the transient-fault draws."""
        if n_requests <= 0:
            raise ValueError("n_requests must be positive")
        h = stable_hash(f"crash|{seed}|{n_requests}")
        rng = np.random.default_rng(h)
        return cls(inner, crash_at=int(rng.integers(0, n_requests)))

    @property
    def requests_seen(self) -> int:
        with self._lock:
            return self._count["value"]

    @property
    def crashed(self) -> bool:
        with self._lock:
            return self._fired["value"]

    def _tick(self, model: Optional[str]) -> None:
        with self._lock:
            index = self._count["value"]
            self._count["value"] = index + 1
            if self.crash_at is None or self._fired["value"] or index != self.crash_at:
                return
            self._fired["value"] = True
        raise SimulatedCrashError(
            f"simulated process crash at request index {index} "
            f"(model {resolve_model_name(self.inner, model)})"
        )

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        self._tick(model)
        return self.inner.complete(prompt, model=model)

    def complete_batch(
        self,
        shared_prefix: str,
        items: List[str],
        model: Optional[str] = None,
    ) -> List[Completion]:
        self._tick(model)
        return self.inner.complete_batch(shared_prefix, items, model=model)

    def embed(self, text: str) -> np.ndarray:
        return self.inner.embed(text)

    def reseeded(self, offset: int) -> "CrashPoint":
        sibling = CrashPoint.__new__(CrashPoint)
        sibling.inner = (
            self.inner.reseeded(offset) if hasattr(self.inner, "reseeded") else self.inner
        )
        sibling.crash_at = self.crash_at
        sibling._count = self._count
        sibling._fired = self._fired
        sibling._lock = self._lock
        return sibling
