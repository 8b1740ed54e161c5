"""Property-based tests of the consistent-hash router (hypothesis).

The ring is fixed at construction. The two properties the cluster design
leans on:

* **Determinism** — routing is a pure function of the shard list: two
  routers built from one list agree on every key, so any process can
  compute a request's owner without coordination.
* **Minimal movement** — the rings of two shard lists that differ by one
  shard disagree only on the keys falling into that shard's arcs: about
  K/N of them in expectation, and never keys between two shards both
  lists hold. A modulo router would remap nearly everything.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.cluster import VNODES, ClusterRouter

_shard_lists = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    min_size=1,
    max_size=8,
    unique=True,
)
_keys = st.lists(
    st.text(alphabet="abcdefghijklmnop0123456789|", min_size=1, max_size=24),
    min_size=1,
    max_size=200,
    unique=True,
)


@settings(max_examples=50, deadline=None)
@given(shards=_shard_lists, keys=_keys)
def test_routing_is_deterministic_across_rebuilds(shards, keys):
    router = ClusterRouter(shards)
    rebuilt = ClusterRouter(list(shards))
    for key in keys:
        owner = router.route(key)
        assert owner in shards
        assert rebuilt.route(key) == owner
        # repeated calls on one instance are stable too
        assert router.route(key) == owner


@settings(max_examples=50, deadline=None)
@given(shards=_shard_lists, keys=_keys)
def test_add_shard_moves_only_keys_to_the_new_shard(shards, keys):
    router = ClusterRouter(shards)
    grown = ClusterRouter(shards + ["zz-new"])
    moved = 0
    for key in keys:
        after = grown.route(key)
        if after != router.route(key):
            # every remapped key must have moved TO the new shard — a key
            # hopping between two old shards would mean unrelated arcs
            # changed, which consistent hashing forbids
            assert after == "zz-new"
            moved += 1
    # expected movement is K/(N+1); allow generous slack for small K and
    # vnode variance, but far below the ~K remap of a modulo router
    n_after = len(shards) + 1
    expected = len(keys) / n_after
    assert moved <= expected * 3 + 8


@settings(max_examples=50, deadline=None)
@given(shards=_shard_lists, keys=_keys)
def test_remove_shard_moves_only_the_removed_shards_keys(shards, keys):
    router = ClusterRouter(shards + ["zz-doomed"])
    shrunk = ClusterRouter(shards)
    for key in keys:
        before, after = router.route(key), shrunk.route(key)
        if before == "zz-doomed":
            assert after in shards  # orphaned keys land on survivors
        else:
            # keys owned by a surviving shard never move on removal
            assert after == before


def test_ring_spreads_keys_across_shards():
    router = ClusterRouter([f"shard-{i}" for i in range(8)])
    owners = {router.route(f"tenant-{i % 5}|query #{i}") for i in range(2000)}
    assert len(owners) == 8  # every shard owns a share of a large keyspace


def test_router_rejects_bad_topologies():
    import pytest

    with pytest.raises(ValueError):
        ClusterRouter([])
    with pytest.raises(ValueError):
        ClusterRouter(["a", "a"])
    router = ClusterRouter(["b", "a"])
    assert router.shards == ("b", "a")  # registration order, immutable
    assert router.describe() == f"ring(2 shards x {VNODES} vnodes)"
