"""Benchmark: crash-recovery sweep over the durable serving stack.

Exercises :mod:`repro.durability` the way an unreliable deployment would:

* **Reference run** — a cache + cascade + budget stack processes a prompt
  stream (distinct questions plus repeats) with no faults; its completions
  and :func:`~repro.durability.comparable_state` snapshot are the ground
  truth.
* **Crash sweep** — the same stack is rebuilt over a
  :class:`~repro.llm.faults.CrashPoint` client for *every* provider-level
  request index. Each run dies mid-stream, is recovered from the durable
  directory (snapshot + journal replay) into a fresh process-equivalent
  stack, resumes the remaining prompts, and is compared bit for bit
  against the reference. ``diverged`` counts any mismatch — the
  acceptance gate is **zero** at every crash index.
* **Journal scaling** — recovery wall-time measured against journal
  length (requests since the last checkpoint), showing replay cost grows
  with the journal, which is exactly what ``checkpoint_every`` bounds.
* **Warm start** — a recovered stack re-answers the distinct questions;
  every one must come from the restored semantic cache with **zero** new
  provider calls (the replayed-call savings the journal buys).

``benchmarks/bench_perf_recovery.py --smoke`` runs a reduced sweep in CI
and fails on any divergence or any warm-start provider call. Completions
and state are deterministic; only the ``*_ms`` timings are wall-clock.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.reporting import format_table
from repro.core.cache import SemanticCache
from repro.durability import comparable_state, snapshot_stack_state
from repro.errors import SimulatedCrashError
from repro.llm.client import LLMClient
from repro.llm.faults import CrashPoint
from repro.serving import build_stack

RECOVERY_SCHEMA = "repro.bench.recovery/v1"
DEFAULT_RECOVERY_REPORT_PATH = "BENCH_recovery.json"

_CHAIN = ("babbage-002", "gpt-3.5-turbo", "gpt-4")


def recovery_prompts(n_distinct: int, n_repeats: int, seed: int = 0) -> List[str]:
    """A deterministic stream: distinct questions then early repeats, so
    the sweep exercises both cold provider calls and cache reuse hits."""
    base = [f"Question {seed}: who directed film number {i}?" for i in range(n_distinct)]
    return base + base[: min(n_repeats, n_distinct)]


def _build(client: object, durable_dir: Optional[str] = None, **kwargs: object):
    return build_stack(
        client,
        cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
        chain=_CHAIN,
        budget_usd=50.0,
        durable_dir=durable_dir,
        **kwargs,
    )


@dataclass
class RecoveryReport:
    """Crash-sweep outcomes plus journal-scaling and warm-start sections.

    ``crash_points`` holds one row per provider-level crash index:
    where the crash surfaced, the journal length replayed at recovery,
    the recovery wall-time, and the two divergence flags. Everything but
    the ``*_ms`` timings is a deterministic function of the seed.
    """

    n_prompts: int
    n_distinct: int
    checkpoint_every: int
    provider_requests: int = 0
    crash_points: List[Dict[str, object]] = field(default_factory=list)
    journal_scaling: List[Dict[str, object]] = field(default_factory=list)
    warm_start: Dict[str, object] = field(default_factory=dict)

    @property
    def diverged(self) -> int:
        return sum(
            int(bool(point["completions_diverged"])) + int(bool(point["state_diverged"]))
            for point in self.crash_points
        )

    @property
    def warm_start_provider_calls(self) -> int:
        return int(self.warm_start.get("new_provider_calls", -1))

    def payload(self) -> Dict[str, object]:
        return {
            "schema": RECOVERY_SCHEMA,
            "n_prompts": self.n_prompts,
            "n_distinct": self.n_distinct,
            "checkpoint_every": self.checkpoint_every,
            "provider_requests": self.provider_requests,
            "diverged": self.diverged,
            "crash_points": self.crash_points,
            "journal_scaling": self.journal_scaling,
            "warm_start": self.warm_start,
        }

    def write(self, path: str = DEFAULT_RECOVERY_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def render(self) -> str:
        rows = [
            (
                point["crash_at"],
                point["crashed_at_request"],
                point["journal_len"],
                point["replayed"],
                f"{float(point['recovery_ms']):.2f}",
                "yes" if point["completions_diverged"] or point["state_diverged"] else "no",
            )
            for point in self.crash_points
        ]
        table = format_table(
            ["Crash idx", "At request", "Journal", "Replayed", "Recovery ms", "Diverged"],
            rows,
            title=(
                f"Crash-recovery sweep ({self.provider_requests} provider-level "
                f"crash indices, checkpoint every {self.checkpoint_every})"
            ),
        )
        scaling = format_table(
            ["Journal len", "Recovery ms"],
            [
                (point["journal_len"], f"{float(point['recovery_ms']):.2f}")
                for point in self.journal_scaling
            ],
            title="Recovery time vs journal length (no checkpoints)",
        )
        warm = (
            f"Warm start: {self.warm_start.get('repeat_queries')} repeat queries, "
            f"{self.warm_start_provider_calls} new provider calls, "
            f"{self.warm_start.get('provider_calls_saved')} provider calls saved "
            f"(${float(self.warm_start.get('cost_saved_usd', 0.0)):.4f})"
        )
        return "\n\n".join(
            [table, scaling, warm, f"Total diverged: {self.diverged} (acceptance: 0)"]
        )


def _drive(stack, prompts: Sequence[str]):
    """Run prompts until a simulated crash; returns (completions, crash_index)
    where ``crash_index`` is the stack-level request the crash surfaced in
    (None if the stream finished). One stack-level request can issue several
    provider-level calls (cascade escalations), so the two indices differ."""
    completions = []
    for index, prompt in enumerate(prompts):
        try:
            completions.append(stack.complete(prompt))
        except SimulatedCrashError:
            return completions, index
    return completions, None


def run_recovery(
    n_distinct: int = 10,
    n_repeats: int = 4,
    checkpoint_every: int = 5,
    scaling_lengths: Sequence[int] = (2, 6, 12),
    seed: int = 0,
    write_path: Optional[str] = None,
) -> RecoveryReport:
    """Run the full sweep; see the module docstring for the four phases."""
    prompts = recovery_prompts(n_distinct, n_repeats, seed)
    report = RecoveryReport(
        n_prompts=len(prompts), n_distinct=n_distinct, checkpoint_every=checkpoint_every
    )

    reference = _build(LLMClient())
    reference_answers = [reference.complete(prompt) for prompt in prompts]
    ref_state = comparable_state(snapshot_stack_state(reference))

    # How many provider-level requests does the uncrashed stream make?
    probe = CrashPoint(LLMClient(), crash_at=None)
    probe_stack = _build(probe)
    for prompt in prompts:
        probe_stack.complete(prompt)
    report.provider_requests = probe.requests_seen

    for crash_at in range(report.provider_requests):
        directory = tempfile.mkdtemp(prefix="repro-recovery-")
        try:
            crashing = _build(
                CrashPoint(LLMClient(), crash_at=crash_at),
                durable_dir=directory,
                checkpoint_every=checkpoint_every,
            )
            completions, crashed_at = _drive(crashing, prompts)
            journal_len = len(crashing.durability.journal)
            start = time.perf_counter()
            recovered = _build(
                LLMClient(), durable_dir=directory, checkpoint_every=checkpoint_every
            )
            recovery_ms = (time.perf_counter() - start) * 1000.0
            replayed = journal_len
            for prompt in prompts[crashed_at:]:
                completions.append(recovered.complete(prompt))
            state = comparable_state(snapshot_stack_state(recovered))
            report.crash_points.append(
                {
                    "crash_at": crash_at,
                    "crashed_at_request": crashed_at,
                    "journal_len": journal_len,
                    "replayed": replayed,
                    "recovery_ms": recovery_ms,
                    "completions_diverged": completions != reference_answers,
                    "state_diverged": state != ref_state,
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    # Recovery time as a function of journal length: no checkpoints, so the
    # whole stream sits in the journal and replay cost scales with it.
    for length in scaling_lengths:
        directory = tempfile.mkdtemp(prefix="repro-recovery-scale-")
        try:
            writer = _build(LLMClient(), durable_dir=directory)
            for prompt in prompts[: min(length, len(prompts))]:
                writer.complete(prompt)
            journal_len = len(writer.durability.journal)
            start = time.perf_counter()
            reader = _build(LLMClient(), durable_dir=directory)
            recovery_ms = (time.perf_counter() - start) * 1000.0
            replayed = len(reader.durability.journal)
            report.journal_scaling.append(
                {
                    "journal_len": journal_len,
                    "replayed": replayed,
                    "recovery_ms": recovery_ms,
                }
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    # Warm start: a recovered stack must answer every repeat of the distinct
    # questions from its restored cache — zero new provider-level calls.
    directory = tempfile.mkdtemp(prefix="repro-recovery-warm-")
    try:
        first_run = _build(LLMClient(), durable_dir=directory)
        cold_cost = 0.0
        for prompt in prompts:
            cold_cost += first_run.complete(prompt).cost
        first_run.checkpoint()
        cold_calls = first_run.stats.llm_calls

        warm = _build(LLMClient(), durable_dir=directory)
        calls_before = warm.stats.llm_calls
        warm_answers = [warm.complete(prompt) for prompt in prompts[:n_distinct]]
        report.warm_start = {
            "repeat_queries": n_distinct,
            "new_provider_calls": warm.stats.llm_calls - calls_before,
            "provider_calls_saved": cold_calls,
            "cost_saved_usd": cold_cost,
            "answers_match_reference": [c.text for c in warm_answers]
            == [c.text for c in reference_answers[:n_distinct]],
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if write_path is not None:
        report.write(write_path)
    return report
