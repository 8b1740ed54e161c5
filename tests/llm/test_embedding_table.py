"""The direction table embeds byte for byte like the seed per-feature loop.

``embed_text`` gathers a text's feature rows from one per-dimension matrix
and sums them in one reduce; ``repro.bench.perf.linear_embed_text`` is the
seed loop, frozen with its own direction memo. Every vector must have the
same bytes on both sides: on arbitrary text, past the table's reserved
rows, and when threads race to add new vocabulary.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.perf import linear_embed_text
from repro.llm import EmbeddingModel, embed_text
from repro.llm import embeddings

DIMS = (8, 32, 64)

_STOPWORDS = sorted(embeddings._STOPWORDS)

word = st.one_of(
    st.sampled_from(_STOPWORDS),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ'_", min_size=1, max_size=4),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=5, max_size=14),
    st.text(alphabet="0123456789", min_size=1, max_size=8),
    st.text(min_size=1, max_size=6),  # any unicode, separators included
)
separator = st.sampled_from([" ", "  ", ", ", "? ", "\n", "-", "é", "日本"])
texts = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(_STOPWORDS), min_size=1, max_size=6).map(" ".join),
    st.tuples(st.lists(word, max_size=20), separator).map(lambda ws: ws[1].join(ws[0])),
)


def _same_bytes(text: str, dim: int) -> bool:
    return embed_text(text, dim).tobytes() == linear_embed_text(text, dim).tobytes()


@settings(max_examples=150, deadline=None)
@given(text=texts, dim=st.sampled_from(DIMS))
def test_table_matches_the_seed_loop_byte_for_byte(text, dim):
    assert _same_bytes(text, dim)


@pytest.mark.parametrize("dim", DIMS)
def test_edge_texts_match(dim):
    for text in (
        "",
        "?!",
        "the of and",
        "2014 1234567 42",
        "Straße naïve 日本語 déjà-vu",
        "internationalization transactional ledger",
        "don't stop_me now, it's_fine",
    ):
        assert _same_bytes(text, dim), text


def test_embed_batch_rows_match_the_seed_loop():
    model = EmbeddingModel(dim=32, memo_size=0)
    batch = ["the stadium concert", "federated budget ledger", "", "the stadium concert"]
    matrix = model.embed_batch(batch)
    for row, text in zip(matrix, batch):
        assert row.tobytes() == linear_embed_text(text, 32).tobytes()


@pytest.fixture
def fresh_tables(monkeypatch):
    """Start every dimension's table empty (the test's own vocabulary)."""
    monkeypatch.setattr(embeddings, "_tables", {})


def test_features_past_the_reserved_rows_still_match(monkeypatch, fresh_tables):
    monkeypatch.setattr(embeddings, "_MAX_FEATURES", 6)
    corpus = [
        "alpha beta",  # w:alpha t:alp t:lph t:pha w:beta b:alpha_beta
        "alpha gamma delta",  # every feature past the six rows
        "beta alpha",
        "the of",
        "gamma",
    ]
    for dim in DIMS:
        for text in corpus * 2:
            assert _same_bytes(text, dim), (text, dim)
        table = embeddings._tables[dim]
        assert len(table.rows) == 6
        assert sorted(table.rows.values()) == list(range(6))


@pytest.mark.parametrize("dim", [84, 768, 4096])
def test_wide_tables_reserve_a_bounded_block(fresh_tables, dim):
    text = "internationalization of the transactional ledger"
    assert _same_bytes(text, dim)
    matrix = embeddings._tables[dim].matrix
    assert matrix.nbytes <= embeddings._MAX_TABLE_BYTES
    assert len(matrix) == embeddings._MAX_TABLE_BYTES // (8 * dim)


def test_racing_threads_add_each_feature_once(fresh_tables):
    n_threads = 8
    vocab = [f"zq{i:03d}vocab" for i in range(60)]
    # Overlapping slices: every word is new to the table and embedded by
    # several threads at once.
    corpus = [" ".join(vocab[i : i + 5]) for i in range(0, len(vocab) - 5)]
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def worker(t):
        try:
            barrier.wait()
            start = 7 * t % len(corpus)
            order = corpus[start:] + corpus[:start]
            results[t] = {text: embed_text(text, 32).tobytes() for text in order}
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for text in corpus:
        expected = linear_embed_text(text, 32).tobytes()
        assert all(got[text] == expected for got in results), text

    table = embeddings._tables[32]
    assert sorted(table.rows.values()) == list(range(len(table.rows)))
    for feature, row in table.rows.items():
        assert np.array_equal(table.matrix[row], embeddings._direction(feature, 32)), feature
