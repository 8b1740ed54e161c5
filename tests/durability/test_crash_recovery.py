"""Kill the stack at every crash index; recovery must be bit-identical.

The reference is an uncrashed run. Every sweep run dies mid-stream via
:class:`~repro.llm.faults.CrashPoint`, is recovered from its durable
directory into a freshly built stack (snapshot restore + journal replay),
resumes the remaining prompts, and must end with the reference's exact
completions and state.
"""

import pytest

from repro.core.cache import SemanticCache
from repro.durability import comparable_state, snapshot_stack_state
from repro.errors import SimulatedCrashError
from repro.llm.client import LLMClient
from repro.llm.faults import CrashPoint
from repro.serving import build_stack

PROMPTS = [f"Question: who directed film number {i}?" for i in range(6)]
PROMPTS = PROMPTS + PROMPTS[:3]  # repeats exercise cache reuse across recovery


def build(client, durable_dir=None, **kwargs):
    return build_stack(
        client,
        cache=SemanticCache(reuse_threshold=0.9, augment_threshold=0.75),
        chain=("babbage-002", "gpt-3.5-turbo", "gpt-4"),
        budget_usd=50.0,
        durable_dir=durable_dir,
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    stack = build(LLMClient())
    completions = [stack.complete(prompt) for prompt in PROMPTS]
    return completions, comparable_state(snapshot_stack_state(stack))


@pytest.fixture(scope="module")
def provider_requests():
    """Provider-level request count of the uncrashed stream (the cascade
    makes several client calls per stack request, cache hits make none)."""
    probe = CrashPoint(LLMClient(), crash_at=None)
    stack = build(probe)
    for prompt in PROMPTS:
        stack.complete(prompt)
    return probe.requests_seen


class TestCrashPointFault:
    def test_fires_at_exact_index_and_only_once(self):
        crash = CrashPoint(LLMClient(), crash_at=2)
        crash.complete("Question: alpha?")
        crash.complete("Question: beta?")
        with pytest.raises(SimulatedCrashError):
            crash.complete("Question: gamma?")
        assert crash.crashed
        # The driver keeps the same client after recovery; no re-fire.
        crash.complete("Question: gamma?")
        assert crash.requests_seen == 4

    def test_crash_precedes_inner_call(self):
        client = LLMClient()
        crash = CrashPoint(client, crash_at=0)
        with pytest.raises(SimulatedCrashError):
            crash.complete("Question: alpha?")
        assert client.meter.calls == 0  # the process died before the call

    def test_batch_counts_as_one_request(self):
        crash = CrashPoint(LLMClient(), crash_at=1)
        crash.complete_batch("Context: ", ["a?", "b?", "c?"])
        with pytest.raises(SimulatedCrashError):
            crash.complete_batch("Context: ", ["d?"])

    def test_disarmed_never_crashes(self):
        crash = CrashPoint(LLMClient(), crash_at=None)
        for i in range(10):
            crash.complete(f"Question: item {i}?")
        assert not crash.crashed
        assert crash.requests_seen == 10

    def test_seeded_is_deterministic_and_in_range(self):
        first = CrashPoint.seeded(LLMClient(), n_requests=20, seed=7)
        second = CrashPoint.seeded(LLMClient(), n_requests=20, seed=7)
        other = CrashPoint.seeded(LLMClient(), n_requests=20, seed=8)
        assert first.crash_at == second.crash_at
        assert 0 <= first.crash_at < 20
        assert any(
            CrashPoint.seeded(LLMClient(), 20, seed=s).crash_at != first.crash_at
            for s in range(1, 10)
        ) or other.crash_at != first.crash_at

    def test_reseeded_sibling_shares_counter_and_fire(self):
        crash = CrashPoint(LLMClient(), crash_at=1)
        sibling = crash.reseeded(3)
        crash.complete("Question: alpha?")
        with pytest.raises(SimulatedCrashError):
            sibling.complete("Question: beta?")
        assert crash.crashed and sibling.crashed
        assert crash.requests_seen == sibling.requests_seen == 2

    def test_negative_crash_at_rejected(self):
        with pytest.raises(ValueError):
            CrashPoint(LLMClient(), crash_at=-1)


class TestCrashRecoverySweep:
    def test_every_crash_index_recovers_bit_identically(
        self, reference, provider_requests, tmp_path
    ):
        ref_completions, ref_state = reference
        assert provider_requests > len(PROMPTS)  # cascade escalations happen
        for crash_at in range(provider_requests):
            directory = str(tmp_path / f"crash{crash_at}")
            crashing = build(
                CrashPoint(LLMClient(), crash_at=crash_at),
                durable_dir=directory,
                checkpoint_every=3,
            )
            completions, crashed_at = [], None
            for index, prompt in enumerate(PROMPTS):
                try:
                    completions.append(crashing.complete(prompt))
                except SimulatedCrashError:
                    crashed_at = index
                    break
            assert crashed_at is not None

            recovered = build(LLMClient(), durable_dir=directory, checkpoint_every=3)
            for prompt in PROMPTS[crashed_at:]:
                completions.append(recovered.complete(prompt))

            assert completions == ref_completions, f"crash_at={crash_at}"
            state = comparable_state(snapshot_stack_state(recovered))
            assert state == ref_state, f"crash_at={crash_at}"

    def test_crash_mid_stream_loses_only_unacknowledged_request(self, tmp_path):
        directory = str(tmp_path / "mid")
        crashing = build(
            CrashPoint(LLMClient(), crash_at=4), durable_dir=directory
        )
        done = 0
        for prompt in PROMPTS:
            try:
                crashing.complete(prompt)
                done += 1
            except SimulatedCrashError:
                break
        # Only acknowledged (returned) requests are journaled.
        assert len(crashing.durability.journal) == done

    def test_recover_replays_journal_count(self, tmp_path):
        directory = str(tmp_path / "replay")
        writer = build(LLMClient(), durable_dir=directory)
        for prompt in PROMPTS[:4]:
            writer.complete(prompt)
        reader = build(LLMClient())
        reader.durability = None  # plain stack: recover() must refuse
        with pytest.raises(ValueError):
            reader.recover()
        from repro.durability import StackDurability

        fresh = build(LLMClient())
        fresh.durability = StackDurability(fresh, directory)
        assert fresh.recover() == 4


class TestWarmStart:
    def test_recovered_cache_answers_repeats_without_provider(self, reference, tmp_path):
        ref_completions, _ref_state = reference
        directory = str(tmp_path / "warm")
        first = build(LLMClient(), durable_dir=directory)
        for prompt in PROMPTS:
            first.complete(prompt)
        first.checkpoint()

        warm = build(LLMClient(), durable_dir=directory)
        calls_before = warm.stats.llm_calls
        answers = [warm.complete(prompt) for prompt in PROMPTS[:6]]
        assert warm.stats.llm_calls == calls_before  # zero new provider calls
        assert [a.text for a in answers] == [c.text for c in ref_completions[:6]]

    def test_checkpoint_requires_durable_dir(self):
        stack = build(LLMClient())
        with pytest.raises(ValueError):
            stack.checkpoint()

    def test_checkpoint_every_without_dir_rejected(self):
        with pytest.raises(ValueError):
            build(LLMClient(), checkpoint_every=5)
