"""CPU-heavy dispatch benchmark: thread pool vs process pool.

The end-to-end serving benchmark (``benchmarks/e2e``) models an I/O-bound
provider (``time.sleep`` releases the GIL, so thread dispatch overlaps
perfectly). This module measures the opposite regime: a provider
that *computes* — a deterministic CPU burn per request standing in for
local inference, tokenization, or re-ranking — where the GIL serializes
thread dispatch and the scheduler's ``dispatch="process"`` mode is the
lever.

Everything stays deterministic: the burned work is a pure function of the
prompt, the completion a pure function of ``(seed, model, prompt)``, so
serial, threaded, and process-pool runs must produce byte-identical
completion texts — the report counts divergences and the CI gate requires
zero.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro._util import stable_hash
from repro.llm.client import Completion, LLMClient

CPU_SCHEMA = "repro.bench.cpu/v1"
DEFAULT_CPU_REPORT_PATH = "BENCH_cpu.json"

DEFAULT_BURN_ITERS = 150_000
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _burn(seed: int, iterations: int) -> int:
    """Pure-Python LCG spin: deterministic, GIL-bound CPU work."""
    state = seed & _LCG_MASK
    for _ in range(iterations):
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
    return state


class CpuHeavyProvider:
    """An :class:`LLMClient` wrapper that pays deterministic CPU per call.

    The burn's LCG is seeded from the prompt, so the work (and its final
    state, recorded in the completion metadata) is a pure function of the
    request — any scheduler may execute it anywhere without changing the
    answer. Unlike the sleep-based simulated provider, this load does NOT
    release the GIL: thread dispatch serializes on it, which is exactly
    the regime process dispatch exists for.
    """

    def __init__(self, seed: int = 7, burn_iters: int = DEFAULT_BURN_ITERS) -> None:
        self.seed = seed
        self.burn_iters = burn_iters
        self.inner = LLMClient(seed=seed)

    def complete(self, prompt: str, model: Optional[str] = None) -> Completion:
        digest = _burn(stable_hash(prompt, bits=63), self.burn_iters)
        completion = self.inner.complete(prompt, model=model)
        completion.metadata["cpu.digest"] = digest
        return completion

    def complete_batch(
        self, shared_prefix: str, items: List[str], model: Optional[str] = None
    ) -> List[Completion]:
        return [self.complete(shared_prefix + item, model=model) for item in items]

    def reseeded(self, offset: int) -> "CpuHeavyProvider":
        clone = CpuHeavyProvider(seed=self.seed + offset, burn_iters=self.burn_iters)
        return clone


def make_cpu_provider(seed: int = 7, burn_iters: int = DEFAULT_BURN_ITERS) -> CpuHeavyProvider:
    """Module-level factory for ``BatchingScheduler(dispatch="process")`` —
    picklable by reference, builds the worker-process provider."""
    return CpuHeavyProvider(seed=seed, burn_iters=burn_iters)


def _signature(completion: Completion) -> tuple:
    return (completion.text, completion.model, completion.metadata.get("cpu.digest"))


class _ForegroundPinger:
    """Measures GIL convoying: a thread that sleeps 1ms and times how long
    waking back up actually takes. In-process CPU burns (thread dispatch)
    hold the GIL, so the pinger stalls; with the burn exiled to worker
    processes the main interpreter stays responsive. This is the
    latency-side case for ``dispatch="process"`` — it holds even on a
    single core, where QPS can only reach parity."""

    SLEEP_S = 0.001

    def __init__(self) -> None:
        self.stalls_ms: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            time.sleep(self.SLEEP_S)
            elapsed = time.perf_counter() - start
            self.stalls_ms.append(max(0.0, (elapsed - self.SLEEP_S) * 1000.0))

    def __enter__(self) -> "_ForegroundPinger":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class CpuReport:
    """Throughput + equivalence of serial vs thread vs process dispatch."""

    schema: str = CPU_SCHEMA
    burn_iters: int = DEFAULT_BURN_ITERS
    n_requests: int = 0
    cpu_count: int = 0
    serial_qps: float = 0.0
    modes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    process_vs_thread: float = 0.0
    stall_reduction: float = 0.0  # thread p95 foreground stall / process p95
    diverged: int = 0
    smoke: bool = False

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


@dataclass
class _ModeResult:
    """Accumulated over interleaved trials of one dispatch mode."""

    best_qps: float = 0.0
    signatures: Optional[List[tuple]] = None
    stalls_ms: List[float] = field(default_factory=list)

    def stall_p95(self) -> float:
        if not self.stalls_ms:
            return 0.0
        ordered = sorted(self.stalls_ms)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _run_trial(
    prompts: List[str], result: _ModeResult, warm_requests: int, **scheduler_kwargs
) -> None:
    """One timed pass through ``prompts``; folds QPS/stalls into ``result``."""
    from repro.serving.scheduler import BatchingScheduler

    scheduler = BatchingScheduler(**scheduler_kwargs)
    try:
        # Warm off the clock with a full concurrent wave: process-pool
        # workers spawn lazily (interpreter boot + imports), so a single
        # warm request would leave all but one worker to pay that cost
        # inside the timed region.
        warm = [
            scheduler.submit(prompts[i % len(prompts)])
            for i in range(max(warm_requests, 1))
        ]
        for future in warm:
            future.result()
        # QPS pass: no pinger — its 1kHz wakeups would preempt worker
        # processes (they cost nothing in thread mode, where the pinger is
        # itself GIL-starved), skewing the very comparison being made.
        start = time.perf_counter()
        futures = [scheduler.submit(p) for p in prompts]
        results = [f.result() for f in futures]
        elapsed = time.perf_counter() - start
        # Stall pass: same warm scheduler, untimed, pinger running.
        with _ForegroundPinger() as pinger:
            for future in [scheduler.submit(p) for p in prompts]:
                future.result()
        result.stalls_ms.extend(pinger.stalls_ms)
    finally:
        scheduler.close()
    qps = len(prompts) / elapsed if elapsed > 0 else 0.0
    if qps > result.best_qps:
        result.best_qps = qps
    if result.signatures is None:
        result.signatures = [_signature(c) for c in results]


def run_cpu(
    n_requests: int = 48,
    burn_iters: int = DEFAULT_BURN_ITERS,
    seed: int = 7,
    trials: int = 3,
    workers: int = 4,
    write_path: Optional[str] = None,
    smoke: bool = False,
) -> CpuReport:
    """Measure serial vs thread-dispatch vs process-dispatch throughput on
    the CPU-burning provider, and verify all three produce byte-identical
    completions. Each concurrent mode reports its best-of-``trials`` QPS
    (interleaved trials + warm pools, to keep a noisy scheduler start or a
    cold spawn from deciding the comparison)."""
    report = CpuReport(
        burn_iters=burn_iters,
        n_requests=n_requests,
        cpu_count=os.cpu_count() or 1,
        smoke=smoke,
    )
    prompts = [f"What is the capital of country {i}?" for i in range(n_requests)]

    provider = make_cpu_provider(seed=seed, burn_iters=burn_iters)
    start = time.perf_counter()
    serial = [provider.complete(p) for p in prompts]
    serial_elapsed = time.perf_counter() - start
    report.serial_qps = round(n_requests / serial_elapsed, 2) if serial_elapsed else 0.0
    serial_sigs = [_signature(c) for c in serial]

    processes = max(2, os.cpu_count() or 1)
    thread_result = _ModeResult()
    process_result = _ModeResult()
    # Interleave thread/process trials so slow machine drift (a noisy
    # neighbor, thermal throttling) hits both modes evenly instead of
    # whichever mode happened to run last.
    for _trial in range(trials):
        _run_trial(
            prompts,
            thread_result,
            warm_requests=8 * workers,
            provider=make_cpu_provider(seed=seed, burn_iters=burn_iters),
            max_batch_size=8,
            max_wait_ms=0.5,
            workers=workers,
        )
        _run_trial(
            prompts,
            process_result,
            warm_requests=8 * processes,
            provider=None,
            max_batch_size=8,
            max_wait_ms=0.5,
            workers=workers,
            dispatch="process",
            provider_factory=make_cpu_provider,
            factory_kwargs={"seed": seed, "burn_iters": burn_iters},
            processes=processes,
        )

    thread_stall = thread_result.stall_p95()
    process_stall = process_result.stall_p95()
    report.modes = {
        "thread": {
            "qps": round(thread_result.best_qps, 2),
            "workers": workers,
            "foreground_stall_p95_ms": round(thread_stall, 3),
        },
        "process": {
            "qps": round(process_result.best_qps, 2),
            "processes": processes,
            "foreground_stall_p95_ms": round(process_stall, 3),
        },
    }
    report.process_vs_thread = (
        round(process_result.best_qps / thread_result.best_qps, 3)
        if thread_result.best_qps
        else 0.0
    )
    report.stall_reduction = (
        round(thread_stall / process_stall, 1) if process_stall > 0 else 0.0
    )
    report.diverged = sum(
        s != serial_sigs[i] for i, s in enumerate(thread_result.signatures or [])
    ) + sum(s != serial_sigs[i] for i, s in enumerate(process_result.signatures or []))

    if write_path:
        with open(write_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return report
