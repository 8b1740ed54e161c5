"""A durable stack under a multi-worker scheduler: journal and checkpoints.

Regression: appends and checkpoints were unsynchronised. Two workers could
take one sequence number, and a checkpoint could truncate the journal under
a concurrent append, failing requests that were already served and charged.
Whether recovery then lands on the live state is a separate question, still
open; this file pins only that the journal itself stays intact.
"""

import pytest

from repro.bench.perf import SimulatedServiceProvider
from repro.core.cache import SemanticCache
from repro.llm.client import LLMClient
from repro.serving import BatchingScheduler, build_stack

PROMPTS = [f"Question: who wrote durable book {i % 30}?" for i in range(120)]


@pytest.mark.parametrize("checkpoint_every", [7, None])
def test_concurrent_requests_all_succeed_with_unique_journal_seqs(tmp_path, checkpoint_every):
    stack = build_stack(
        SimulatedServiceProvider(LLMClient(), overhead_ms=2.0),
        cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
        budget_usd=50.0,
        durable_dir=str(tmp_path),
        checkpoint_every=checkpoint_every,
    )
    try:
        with BatchingScheduler(stack, workers=4) as scheduler:
            futures = [scheduler.submit(prompt) for prompt in PROMPTS]
            failed = [future for future in futures if future.exception(timeout=30) is not None]
    finally:
        stack.durability.close()
    assert failed == []
    seqs = [record["seq"] for record in stack.durability.journal.records()]
    assert seqs == list(range(len(seqs)))
    if checkpoint_every is None:
        assert len(seqs) == len(PROMPTS)
