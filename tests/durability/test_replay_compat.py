"""Reuse-hit completions survive a snapshot, in today's format and in the
older one that kept them in a separate ``replay`` section.

``v1_stack_snapshot.json`` was written by that older code: a
``build_stack(make_client(), cache=SemanticCache(capacity=8))`` stack served
six prompts (one repeated), was snapshotted, and a fresh stack restored
from the payload then served every cached key again. The file holds the
payload and those served completions (in the format of a cache entry's
``completion``).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.core.cache import SemanticCache, _completion_to_dict
from repro.durability import SNAPSHOT_SCHEMA, restore_stack_state, snapshot_stack_state
from repro.llm.provider import make_client
from repro.serving import build_stack

FIXTURE = Path(__file__).with_name("v1_stack_snapshot.json")


@pytest.fixture(scope="module")
def older():
    return json.loads(FIXTURE.read_text())


def _stack():
    return build_stack(make_client(), cache=SemanticCache(capacity=8))


def _serve_all(stack, keys):
    return {key: _completion_to_dict(stack.complete(key)) for key in keys}


def test_fixture_is_an_older_v1_payload(older):
    payload = older["payload"]
    assert payload["schema"] == SNAPSHOT_SCHEMA
    assert len(payload["state"]["replay"]) >= 4
    assert all("completion" not in stored for stored in payload["state"]["cache"]["entries"])


def test_older_payload_restores_the_same_reuse_hits(older):
    stack = _stack()
    restore_stack_state(stack, older["payload"])
    served = _serve_all(stack, older["served"])
    assert served == older["served"]
    assert {c["engine"] for c in served.values()} >= {"qa", "generic"}
    assert all(c["model"] != "cache" for c in served.values())


def test_older_replay_item_for_a_refreshed_entry_is_not_attached(older):
    payload = copy.deepcopy(older["payload"])
    key = sorted(payload["state"]["replay"])[0]
    payload["state"]["replay"][key]["text"] = "an answer the entry no longer holds"
    stack = _stack()
    restore_stack_state(stack, payload)
    served = stack.complete(key)
    assert served.text == stack.provider.cache.entries[key].response
    assert served.model == "cache" and served.engine == "cache"
    others = [k for k in older["served"] if k != key]
    assert _serve_all(stack, others) == {k: older["served"][k] for k in others}


def test_payload_carries_completions_on_entries(older):
    stack = _stack()
    restore_stack_state(stack, older["payload"])
    stack.provider.cache.put("bare key", "bare answer")  # no completion
    payload = json.loads(json.dumps(snapshot_stack_state(stack)))
    assert "replay" not in payload["state"]
    stored = {entry["key"]: entry for entry in payload["state"]["cache"]["entries"]}
    assert "completion" not in stored["bare key"]
    for key in older["served"]:
        assert stored[key]["completion"]["text"] == stored[key]["response"]

    again = _stack()
    restore_stack_state(again, payload)
    assert _serve_all(again, older["served"]) == older["served"]
    assert again.complete("bare key").model == "cache"


def test_cache_codec_round_trips_the_completion():
    source = _stack()
    first = source.complete("Question: Who directed the film Inception?")
    snapshot = json.loads(json.dumps(source.provider.cache.state_dict()))
    cache = SemanticCache(capacity=8)
    cache.load_state(snapshot)
    (entry,) = cache.entries.values()
    assert entry.completion == first
