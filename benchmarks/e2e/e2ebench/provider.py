"""The benchmark's simulated LLM service.

The repo's ``LLMClient`` answers in microseconds, so a throughput number
taken against it measures Python overhead, not serving structure. This
provider sleeps ``overhead_ms + per_item_ms * n`` per call — ``time.sleep``
releases the GIL, so calls from several dispatcher threads overlap for
real — and delegates the answer to the inner client. It also keeps the
books the benchmark needs from *outside* the system: calls, items, busy
time, summed ``Completion.cost`` and the set of prompts that reached it.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Set


class SleepingProvider:
    """Completion provider charging wall-clock per call."""

    def __init__(self, inner, overhead_ms: float, per_item_ms: float = 0.0) -> None:
        self.inner = inner
        self.overhead_ms = overhead_ms
        self.per_item_ms = per_item_ms
        self._lock = threading.Lock()
        self.calls = 0
        self.items = 0
        self.busy_s = 0.0
        self.cost_usd = 0.0
        self.seen: Set[str] = set()  # effective prompts, for the miss-path check

    def _account(self, started: float, prompts: List[str], completions) -> None:
        busy = time.perf_counter() - started
        with self._lock:
            self.calls += 1
            self.items += len(prompts)
            self.busy_s += busy
            self.cost_usd += sum(c.cost for c in completions)
            self.seen.update(prompts)

    def complete(self, prompt: str, model: Optional[str] = None):
        started = time.perf_counter()
        time.sleep((self.overhead_ms + self.per_item_ms) / 1000.0)
        completion = self.inner.complete(prompt, model=model)
        self._account(started, [prompt], [completion])
        return completion

    def complete_batch(self, shared_prefix: str, items: List[str], model: Optional[str] = None):
        started = time.perf_counter()
        time.sleep((self.overhead_ms + self.per_item_ms * len(items)) / 1000.0)
        completions = self.inner.complete_batch(shared_prefix, items, model=model)
        self._account(started, [shared_prefix + item for item in items], completions)
        return completions

    def embed(self, text: str):
        return self.inner.embed(text)

    def counters(self) -> dict:
        with self._lock:
            return {
                "provider_calls": self.calls,
                "provider_items": self.items,
                "provider_busy_s": self.busy_s,
                "cost_usd": self.cost_usd,
            }
