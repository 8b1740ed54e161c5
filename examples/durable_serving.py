"""Durable serving: crash mid-run, recover, and lose nothing.

A serving stack built with ``build_stack(durable_dir=...)`` journals every
acknowledged request and can snapshot its full stateful surface — the
semantic cache (entries, LRFU clock, stats), the usage meter, and the
service counters, budget spend included — to disk. This script:

1. runs a reference stream with no faults,
2. re-runs it over a :class:`~repro.llm.faults.CrashPoint` client that
   kills the simulated process mid-stream,
3. "restarts" by rebuilding the stack over the same durable directory
   (recovery = snapshot restore + journal replay), resumes the stream,
   and shows the result is bit-identical to the never-crashed run,
4. warm-starts once more and answers every repeat question straight from
   the recovered cache — zero new provider calls.

Everything is deterministic, so every run prints the same numbers.

Run with:  python examples/durable_serving.py
"""

import tempfile

from repro.core.cache import SemanticCache
from repro.durability import comparable_state, snapshot_stack_state
from repro.errors import SimulatedCrashError
from repro.llm import LLMClient
from repro.llm.faults import CrashPoint
from repro.serving import build_stack

QUESTIONS = [f"Question: who directed film number {i}?" for i in range(8)]
STREAM = QUESTIONS + QUESTIONS[:4]  # repeats become cache reuse hits


def build(client, durable_dir=None):
    return build_stack(
        client,
        cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
        chain=("babbage-002", "gpt-3.5-turbo", "gpt-4"),
        budget_usd=50.0,
        durable_dir=durable_dir,
        checkpoint_every=None if durable_dir is None else 5,
    )


def main() -> None:
    print("== 1. Reference run (no faults, no durability) ==")
    reference = build(LLMClient())
    ref_answers = [reference.complete(q) for q in STREAM]
    ref_state = comparable_state(snapshot_stack_state(reference))
    print(f"{len(STREAM)} requests, {reference.stats.llm_calls} provider calls, "
          f"{reference.stats.cache_reuse_hits} cache reuse hits")

    with tempfile.TemporaryDirectory() as durable_dir:
        print("\n== 2. Same stream, but the process dies mid-run ==")
        crashing = build(CrashPoint(LLMClient(), crash_at=9), durable_dir=durable_dir)
        answers, crashed_at = [], None
        for index, question in enumerate(STREAM):
            try:
                answers.append(crashing.complete(question))
            except SimulatedCrashError as error:
                crashed_at = index
                print(f"request {index}: {error}")
                break
        journaled = len(crashing.durability.journal)
        print(f"{len(answers)} answers acknowledged before the crash "
              f"({journaled} journaled since the last checkpoint)")

        print("\n== 3. Restart: recover from the durable directory ==")
        recovered = build(LLMClient(), durable_dir=durable_dir)  # replays on build
        for question in STREAM[crashed_at:]:
            answers.append(recovered.complete(question))
        state = comparable_state(snapshot_stack_state(recovered))
        print(f"resumed from request {crashed_at}; completions bit-identical: "
              f"{answers == ref_answers}; state bit-identical: {state == ref_state}")

        print("\n== 4. Warm start: repeats answered without the provider ==")
        recovered.checkpoint()
        warm = build(LLMClient(), durable_dir=durable_dir)
        calls_before = warm.stats.llm_calls
        warm_answers = [warm.complete(q) for q in QUESTIONS]
        print(f"{len(QUESTIONS)} repeat questions, "
              f"{warm.stats.llm_calls - calls_before} new provider calls, "
              f"answers match: "
              f"{[a.text for a in warm_answers] == [a.text for a in ref_answers[:8]]}")


if __name__ == "__main__":
    main()
