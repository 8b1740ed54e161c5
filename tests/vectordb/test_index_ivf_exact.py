"""ExactIVFIndex conformance: every answer is FlatIndex's answer, and the
work a search does is pinned as counts (rows scanned, matrix reductions
issued), not as timings.

Two data regimes throughout, because the index behaves differently on them:
``clustered`` (mixture of centres plus noise — the bounds prune almost
everything) and ``text`` (hash embeddings of prompt text — near-orthogonal
rows, cluster radii close to the query-to-centroid angles, nothing pruned).
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.perf import make_probe_stream, make_queries
from repro.core.cache import SemanticCache
from repro.llm.embeddings import EmbeddingModel
from repro.vectordb import ExactIVFIndex, FlatIndex, index_ivf_exact
from repro.vectordb.index_flat import REFINE_BAND
from repro.vectordb.index_ivf_exact import BOUND_SLACK, GATHER_COST_RATIO

DIM = 64
REGIMES = ("clustered", "text")
# Indexes of a few hundred rows finish almost every search with the flat
# pass; ratio 0 never does, so the same streams also drive the gathered
# groups (up to six per search) on their own.
GATHER_RATIOS = (GATHER_COST_RATIO, 0)


def gather_ratio(ratio):
    return mock.patch.object(index_ivf_exact, "GATHER_COST_RATIO", ratio)


def clustered_vectors(n, seed=17, n_centers=None, spread=0.10):
    rng = np.random.default_rng(seed)
    n_centers = n_centers or max(8, n // 50)
    centers = rng.standard_normal((n_centers, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return centers[rng.integers(0, n_centers, size=n)] + spread * rng.standard_normal((n, DIM))


def text_vectors(texts):
    return np.array(EmbeddingModel(dim=DIM, memo_size=1).embed_batch(list(texts)))


@functools.lru_cache(maxsize=None)
def pool(regime, n=400):
    """``n`` stored vectors and 40 probes (near-duplicates and strangers)."""
    rng = np.random.default_rng(23)
    if regime == "clustered":
        vectors = clustered_vectors(n)
        near = vectors[rng.integers(0, n, size=30)] + 0.01 * rng.standard_normal((30, DIM))
        probes = np.vstack([near, rng.standard_normal((10, DIM))])
    else:
        texts = make_queries(n, seed=5)
        vectors = text_vectors(texts)
        probes = text_vectors(make_probe_stream(texts, 30, seed=6) + make_queries(10, seed=7))
    vectors.setflags(write=False)
    probes.setflags(write=False)
    return vectors, probes


def assert_same_answers(flat, ivf, probes):
    for probe in probes:
        assert ivf.search_top1(probe, refine_exact=True) == flat.search_top1(
            probe, refine_exact=True
        )
    assert ivf.search_top1_many(probes, refine_exact=True) == flat.search_top1_many(
        probes, refine_exact=True
    )


def both(flat, ivf, method, *args):
    getattr(flat, method)(*args)
    getattr(ivf, method)(*args)


# ---------------------------------------------------------------- lifecycle


@pytest.fixture(params=GATHER_RATIOS, ids=lambda ratio: f"ratio{ratio}")
def any_gather_ratio(request):
    with gather_ratio(request.param):
        yield request.param


@pytest.mark.parametrize("regime", REGIMES)
def test_lifecycle_matches_flat(regime, any_gather_ratio):
    """Untrained -> trained -> tail -> retrain -> tombstones -> compaction,
    with zero vectors, duplicated rows and a zero query on the way."""
    vectors, probes = pool(regime)
    flat, ivf = FlatIndex(DIM), ExactIVFIndex(DIM, train_threshold=64)
    ids = [f"v{i}" for i in range(len(vectors))]

    for i in range(40):
        both(flat, ivf, "add", ids[i], vectors[i])
    assert_same_answers(flat, ivf, probes)
    assert not ivf.is_trained and ivf.pruned_searches == 0

    both(flat, ivf, "add_batch", ids[40:200], vectors[40:200])
    assert_same_answers(flat, ivf, probes)
    assert ivf.is_trained and ivf._trained_rows == 200 and ivf.pruned_searches > 0

    # A tail short of retrain_fraction is scanned unclustered...
    both(flat, ivf, "add_batch", ids[200:230], vectors[200:230])
    assert_same_answers(flat, ivf, probes)
    assert ivf._trained_rows == 200 and ivf._size == 230
    # ...and one past it retrains.
    both(flat, ivf, "add_batch", ids[230:320], vectors[230:320])
    assert_same_answers(flat, ivf, probes)
    assert ivf._trained_rows == 320

    # Zero rows (no direction) and exact duplicates of a stored row: the
    # first-inserted one wins the tie on both indexes.
    both(flat, ivf, "add", "zero-a", np.zeros(DIM))
    both(flat, ivf, "add", "dup-a", vectors[5])
    both(flat, ivf, "add", "dup-b", vectors[5])
    ivf.train()  # put the zero row and the duplicates inside clusters
    assert ivf.search_top1(vectors[5], refine_exact=True)[0] == "v5"
    assert_same_answers(flat, ivf, np.vstack([probes, vectors[5], np.zeros(DIM)]))
    both(flat, ivf, "remove", "v5")
    assert ivf.search_top1(vectors[5], refine_exact=True)[0] == "dup-a"

    # Tombstones, then enough of them to compact (which drops the clustering).
    for i in range(0, 100, 2):
        if i != 5:
            both(flat, ivf, "remove", ids[i])
    assert ivf._tombstones > 0 and ivf.is_trained
    assert_same_answers(flat, ivf, probes)
    live = [vid for vid in ids[:320] if vid in flat]
    for vid in live[: len(live) - 60]:
        both(flat, ivf, "remove", vid)
    assert ivf._tombstones < 40 and not ivf.is_trained  # compacted
    assert_same_answers(flat, ivf, probes)
    assert len(ivf) == len(flat)

    both(flat, ivf, "add_batch", ids[320:], vectors[320:])
    assert_same_answers(flat, ivf, np.vstack([probes, np.zeros(DIM)]))
    assert ivf.is_trained


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add_batch", "remove", "search", "search", "many"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=10,
    max_size=120,
)


@settings(max_examples=25, deadline=None)
@given(
    ops=op_strategy,
    regime=st.sampled_from(REGIMES),
    ratio=st.sampled_from(GATHER_RATIOS),
)
def test_op_stream_matches_flat(ops, regime, ratio):
    """Any interleaving of add / add_batch / remove / search agrees with a
    FlatIndex fed the same ops (train_threshold 8, so most streams train,
    grow a tail, retrain and compact along the way)."""
    vectors, probes = pool(regime)
    flat, ivf = FlatIndex(DIM), ExactIVFIndex(DIM, train_threshold=8)
    with gather_ratio(ratio):
        _replay(ops, flat, ivf, vectors, probes)
    assert len(ivf) == len(flat)


def _replay(ops, flat, ivf, vectors, probes):
    next_row = 0
    for kind, pick in ops:
        if kind == "add" and next_row < len(vectors):
            # Every seventh insert repeats an earlier row, every eleventh is zero.
            source = np.zeros(DIM) if pick % 11 == 0 else vectors[
                pick % next_row if pick % 7 == 0 and next_row else next_row
            ]
            both(flat, ivf, "add", f"v{next_row}", source)
            next_row += 1
        elif kind == "add_batch" and next_row + 12 <= len(vectors):
            rows = range(next_row, next_row + 12)
            both(flat, ivf, "add_batch", [f"v{i}" for i in rows], vectors[list(rows)])
            next_row += 12
        elif kind == "remove" and len(flat):
            live = sorted(flat._live) + sorted(flat._pending)
            both(flat, ivf, "remove", live[pick % len(live)])
        elif kind == "search":
            stored = vectors[pick % next_row] if pick % 3 == 0 and next_row else None
            probe = stored if stored is not None else probes[pick % len(probes)]
            probe = np.zeros(DIM) if pick % 13 == 0 else probe
            assert ivf.search_top1(probe, refine_exact=True) == flat.search_top1(
                probe, refine_exact=True
            )
        elif kind == "many":
            block = probes[pick % 30 : pick % 30 + 6]
            assert ivf.search_top1_many(block, refine_exact=True) == flat.search_top1_many(
                block, refine_exact=True
            )


def test_semantic_cache_on_pruned_index_matches_flat(any_gather_ratio):
    """Repeat / one-word-edit / novel prompts through two caches that differ
    only in the index: same tiers, similarities, stats and entry counters."""
    texts = make_queries(500, seed=31)
    rng = np.random.default_rng(32)
    stream = []
    for i in range(900):
        base = texts[min(int(rng.random() ** 2 * 300), 299)]
        kind = i % 5
        if kind < 2:
            stream.append(base)
        elif kind < 4:
            words = base.split(" ")
            words[int(rng.integers(0, len(words) - 1))] = "zebra"
            stream.append(" ".join(words))
        else:
            stream.append(texts[300 + i // 5])

    def drive(index):
        cache = SemanticCache(
            capacity=192, reuse_threshold=0.9, augment_threshold=0.7, index=index
        )
        trace = []
        for prompt in stream:
            lookup = cache.lookup(prompt)
            trace.append(
                (lookup.tier, lookup.similarity, lookup.entry.key if lookup.entry else None)
            )
            if lookup.tier != "reuse":
                cache.put(prompt, "answer to " + prompt, cost=0.01)
        counters = [
            (e.key, e.reuse_hits, e.augment_hits, e.last_access, e.inserted_at, e.crf)
            for e in cache.entries.values()
        ]
        return trace, cache.stats, counters, cache

    flat_run = drive("flat")
    pruned_run = drive(ExactIVFIndex(dim=DIM, train_threshold=64))
    assert pruned_run[:3] == flat_run[:3]
    tiers = {tier for tier, _sim, _key in flat_run[0]}
    assert tiers == {"reuse", "augment", "miss"} and flat_run[1].evictions > 0
    assert pruned_run[3].index.pruned_searches > 0


# ------------------------------------------------------- the work, as counts


def test_untrained_search_reports_a_full_scan():
    vectors, probes = pool("clustered")
    ivf = ExactIVFIndex(DIM)  # default threshold: 400 rows never train
    ivf.add_batch([f"v{i}" for i in range(len(vectors))], vectors)
    ivf.search_top1(probes[0], refine_exact=True)
    assert ivf.full_searches == 1 and ivf.pruned_searches == 0
    assert ivf.last_scanned_rows == len(ivf) == ivf.scanned_rows
    assert ivf.reductions == 1


def _filled(vectors):
    flat, ivf = FlatIndex(DIM), ExactIVFIndex(DIM)
    ids = [f"v{i}" for i in range(len(vectors))]
    both(flat, ivf, "add_batch", ids, vectors)
    ivf.train()
    return flat, ivf


def test_unprunable_text_data_costs_a_bounded_number_of_reductions():
    """Hash embeddings of text give bounds that prune nothing; the search
    must not answer that with one reduction per cluster."""
    texts = make_queries(8192, seed=11)
    flat, ivf = _filled(text_vectors(texts))
    n_clusters = len(ivf._cluster_rows)
    ceiling = 3 + math.ceil(math.log2(n_clusters))
    assert n_clusters > 4 * ceiling  # the bound means something
    probes = text_vectors(make_probe_stream(texts, 60, seed=13) + make_queries(20, seed=14))
    for probe in probes:
        before = ivf.reductions
        assert ivf.search_top1(probe, refine_exact=True) == flat.search_top1(
            probe, refine_exact=True
        )
        assert ivf.reductions - before <= ceiling
        # Nothing could be pruned: the cost is the flat pass plus at most
        # what was gathered before giving up (under 1/4 of the rows).
        assert len(ivf) <= ivf.last_scanned_rows <= 1.25 * len(ivf)
    assert ivf.pruned_searches == len(probes)
    assert ivf.scanned_rows >= len(probes) * len(ivf)
    # Were the flat pass never taken, doubling alone keeps the ceiling — a
    # cluster-by-cluster scan issues about one reduction per cluster here.
    with gather_ratio(0):
        for probe in probes:
            before = ivf.reductions
            assert ivf.search_top1(probe, refine_exact=True) == flat.search_top1(
                probe, refine_exact=True
            )
            assert ivf.reductions - before <= ceiling - 1


def _cluster_by_cluster_rows(ivf, query):
    """Rows the one-cluster-at-a-time rule scans: the reference prefix."""
    qn = float(np.linalg.norm(query))
    theta = np.arccos(np.clip(ivf._centroids @ (query / qn), -1.0, 1.0))
    bounds = np.cos(np.maximum(0.0, theta - ivf._radius))
    best, scanned = -np.inf, 0
    for c in np.argsort(-bounds, kind="stable"):
        if bounds[c] < best - (REFINE_BAND + BOUND_SLACK):
            break
        rows = ivf._cluster_rows[c]
        if rows.size:
            sims = (ivf._buf[rows] @ query) / (ivf._norms_buf[rows] * qn)
            best, scanned = max(best, float(sims.max())), scanned + rows.size
    inside = bounds >= 1.0 - (REFINE_BAND + BOUND_SLACK)
    return scanned, int(ivf._cluster_sizes[inside].sum())


def test_clustered_data_keeps_its_pruning():
    """Doubling groups may overshoot the cluster-by-cluster stop point, but
    by no more than the first group plus as much again."""
    rng = np.random.default_rng(41)
    vectors = clustered_vectors(8192, seed=40, n_centers=32)
    flat, ivf = _filled(vectors)
    near = vectors[rng.integers(0, len(vectors), size=80)]
    probes = near + 0.01 * rng.standard_normal(near.shape)
    total = 0
    for probe in probes:
        assert ivf.search_top1(probe, refine_exact=True) == flat.search_top1(
            probe, refine_exact=True
        )
        reference, first_group = _cluster_by_cluster_rows(ivf, probe)
        assert reference <= ivf.last_scanned_rows <= first_group + 2 * reference
        total += ivf.last_scanned_rows
    assert total == ivf.scanned_rows
    assert total / (len(probes) * len(ivf)) <= 0.10
