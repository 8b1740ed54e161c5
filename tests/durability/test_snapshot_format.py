"""The snapshot payload format does not move.

``golden_stack_snapshot.json`` was written by the per-type snapshot codecs
that the components' ``state_dict()`` methods replaced: a
``build_stack(LLMClient(), cache=..., budget_usd=5.0)`` stack (the cache as
in :func:`_stack`) served three rounds of seven prompts, then its stats
recorded two scheduler batches, two gateway outcomes with queue waits and
one tenant's namespace. Restoring that payload into a fresh stack and
snapshotting again must give it back key for key, in the same order, and
float for float.
"""

import json
from pathlib import Path

import pytest

from repro.core.cache import AdmissionPredictor, EvictionPolicy, SemanticCache
from repro.durability import SNAPSHOT_SCHEMA, restore_stack_state, snapshot_stack_state
from repro.llm.client import LLMClient
from repro.llm.faults import CrashPoint
from repro.serving import build_stack

FIXTURE = Path(__file__).with_name("golden_stack_snapshot.json")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def _stack(client=None):
    cache = SemanticCache(
        capacity=4,
        policy=EvictionPolicy.LRFU,
        lrfu_lambda=0.25,
        admission=AdmissionPredictor(history=8),
    )
    return build_stack(client or LLMClient(), cache=cache, budget_usd=5.0)


def test_fixture_covers_every_component(golden):
    assert golden["schema"] == SNAPSHOT_SCHEMA
    state = golden["state"]
    assert list(state) == ["stats", "cache", "meter"]
    cache = state["cache"]
    assert cache["policy"] == "lrfu" and cache["admission"]["rows"]
    assert cache["stats"]["evictions"] > 0 and cache["admission_rejects"] > 0
    assert any("completion" in entry for entry in cache["entries"])
    stats = state["stats"]
    assert stats["budget_limit_usd"] == 5.0 and stats["budget_spent_usd"] > 0
    assert stats["scheduler_batch_sizes"] and list(stats["tenants"]) == ["acme"]
    assert stats["gateway_queue_wait_hist"]["total"] > 0
    assert state["meter"]["calls"] > 0


def test_restore_then_snapshot_gives_the_fixture_back(golden):
    stack = _stack()
    restore_stack_state(stack, golden)
    again = json.loads(json.dumps(snapshot_stack_state(stack)))
    assert again == golden
    assert json.dumps(again) == json.dumps(golden)  # key order too
    assert stack.stats.scheduler_batch_sizes == {3: 1, 1: 1}


def test_the_client_meter_is_found_through_a_wrapper():
    client = LLMClient()
    stack = _stack(CrashPoint(client))
    assert list(stack.components) == ["stats", "cache", "meter"]
    assert stack.components["meter"] is client.meter


def test_a_section_without_a_registered_component_raises(golden):
    stack = _stack()
    del stack.components["meter"]
    with pytest.raises(ValueError, match="no meter"):
        restore_stack_state(stack, golden)
