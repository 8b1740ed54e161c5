"""Deterministic text embeddings (the simulated embedding model).

Uses the feature-hashing trick: every word unigram, character trigram and
word bigram is mapped to a stable pseudo-random Gaussian direction (seeded
by a blake2b hash of the feature), and a text's embedding is the weighted
sum of its feature directions, L2-normalized. Properties that matter here:

* texts sharing words/roots get high cosine similarity (semantic-ish);
* fully deterministic across processes (no :func:`hash` randomization);
* cheap: a direction is generated once per process and stored as one row
  of a per-dimension matrix, and a token's unigram and trigram rows are
  memoized, so embedding a text on known vocabulary is one gather, one
  multiply and one reduce.

This stands in for the LLM-produced embeddings the paper assumes for prompt
stores, semantic caches and multi-modal lakes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro._util import stable_hash, words

DEFAULT_DIM = 64
DEFAULT_MEMO_SIZE = 4096
DEFAULT_MATRIX_MEMO_SIZE = 4

_STOPWORDS = frozenset(
    """
    a an and are as at be by for from had has have in is it of on or that the
    this to was were what which who whom with
    """.split()
)

# Rows reserved per dimension's direction table: 200,000, or fewer where
# that would pass 128 MiB (above 83 dimensions). ``np.zeros`` maps the
# block lazily, so only rows a feature has claimed are ever resident.
_MAX_FEATURES = 200_000
_MAX_TABLE_BYTES = 128 << 20
# Tokens whose rows a table memoizes before it starts the memo over.
_MAX_TOKENS = 65_536


def _direction(feature: str, dim: int) -> np.ndarray:
    key = f"{dim}:{feature}"
    rng = np.random.default_rng(stable_hash(key, bits=63))
    vec = rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return vec


def _token_features(token: str) -> Iterator[Tuple[str, float]]:
    yield f"w:{token}", 0.25 if token in _STOPWORDS else 1.0
    if len(token) >= 5:
        for i in range(len(token) - 2):
            yield f"t:{token[i : i + 3]}", 0.3


def _bigram_features(tokens: List[str]) -> Iterator[Tuple[str, float]]:
    # Bigrams capture a little word order.
    for a, b in zip(tokens, tokens[1:]):
        if a not in _STOPWORDS or b not in _STOPWORDS:
            yield f"b:{a}_{b}", 0.5


def _features(tokens: List[str]) -> Iterable[Tuple[str, float]]:
    """Yield a text's (feature, weight) pairs, in summation order."""
    for token in tokens:
        yield from _token_features(token)
    yield from _bigram_features(tokens)


class _DirectionTable:
    """Every feature direction of one dimension, generated once.

    ``matrix[rows[feature]]`` is ``_direction(feature, dim)``. Rows are
    appended under a lock and a feature is published in ``rows`` only
    after its row is written, so lock-free readers never see a half-built
    row; the matrix is reserved up front and never moves. ``tokens``
    memoizes the rows and weights of a token's unigram and trigram
    features; entries are pure functions of the token, so racing writers
    store equal values. A feature past the reserved rows gets no row.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        rows = max(1, min(_MAX_FEATURES, _MAX_TABLE_BYTES // (8 * dim)))
        self.matrix = np.zeros((rows, dim), dtype=np.float64)
        self.rows: Dict[str, int] = {}
        self.tokens: Dict[str, Tuple[List[int], List[float]]] = {}
        self._lock = threading.Lock()

    def row(self, feature: str) -> Optional[int]:
        row = self.rows.get(feature)
        if row is not None:
            return row
        with self._lock:
            row = self.rows.get(feature)
            if row is None and len(self.rows) < len(self.matrix):
                row = len(self.rows)
                self.matrix[row] = _direction(feature, self.dim)
                self.rows[feature] = row
        return row

    def token(self, token: str) -> Optional[Tuple[List[int], List[float]]]:
        hit = self.tokens.get(token)
        if hit is not None:
            return hit
        ids: List[int] = []
        weights: List[float] = []
        for feature, weight in _token_features(token):
            row = self.row(feature)
            if row is None:
                return None
            ids.append(row)
            weights.append(weight)
        if len(self.tokens) >= _MAX_TOKENS:
            self.tokens.clear()
        self.tokens[token] = (ids, weights)
        return ids, weights


_tables: Dict[int, _DirectionTable] = {}
_tables_lock = threading.Lock()


def _table(dim: int) -> _DirectionTable:
    table = _tables.get(dim)
    if table is None:
        with _tables_lock:
            table = _tables.setdefault(dim, _DirectionTable(dim))
    return table


def _embed_features(tokens: List[str], table: _DirectionTable) -> np.ndarray:
    """The per-feature loop: one ``acc +=`` per feature, in _features() order."""
    acc = np.zeros(table.dim, dtype=np.float64)
    for feature, weight in _features(tokens):
        row = table.row(feature)
        vec = _direction(feature, table.dim) if row is None else table.matrix[row]
        acc += weight * vec
    return acc


def _gather(
    tokens: List[str], table: _DirectionTable
) -> Optional[Tuple[List[int], List[float]]]:
    """A text's feature rows and weights in _features() order; None when a
    feature is past the table."""
    ids: List[int] = []
    weights: List[float] = []
    for token in tokens:
        hit = table.token(token)
        if hit is None:
            return None
        ids += hit[0]
        weights += hit[1]
    for feature, weight in _bigram_features(tokens):
        row = table.row(feature)
        if row is None:
            return None
        ids.append(row)
        weights.append(weight)
    return ids, weights


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed ``text`` into a unit vector of dimension ``dim``."""
    tokens = [w.lower() for w in words(text)]
    if not tokens:
        return np.zeros(dim, dtype=np.float64)
    table = _table(dim)
    # A one-column reduce sums pairwise; from two columns on, each output
    # element sums its rows first to last, exactly as the per-feature loop
    # adds them: the same bytes.
    gathered = _gather(tokens, table) if dim > 1 else None
    if gathered is None:
        acc = _embed_features(tokens, table)
    else:
        rows = table.matrix.take(gathered[0], axis=0)
        rows *= np.array(gathered[1])[:, None]
        acc = np.add.reduce(rows, axis=0)
    norm = np.linalg.norm(acc)
    if norm > 0:
        acc /= norm
    return acc


class EmbeddingModel:
    """Object-style wrapper so callers can inject alternative embedders.

    Repeated texts skip feature hashing entirely through a bounded LRU memo
    (``memo_size`` entries; 0 disables it). Memoized vectors are shared
    between callers and therefore returned read-only — every consumer in
    this codebase copies on store, so sharing is safe and keeps a memo hit
    allocation-free on the serving hot path.

    Thread safety: the memo's hit bookkeeping (``move_to_end``) and its
    insert/evict pair mutate the OrderedDict and are guarded by a lock.
    The actual embedding runs *off* the lock — a concurrent double-compute
    of the same text produces the identical vector, so losing that race
    only costs a little CPU, never correctness.
    """

    def __init__(self, dim: int = DEFAULT_DIM, memo_size: int = DEFAULT_MEMO_SIZE) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if memo_size < 0:
            raise ValueError("memo_size must be non-negative")
        self.dim = dim
        self.memo_size = memo_size
        self._memo: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._memo_lock = threading.Lock()
        self._matrix_memo: "OrderedDict[bytes, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )

    def embed(self, text: str) -> np.ndarray:
        memo = self._memo
        with self._memo_lock:
            vec = memo.get(text)
            if vec is not None:
                memo.move_to_end(text)
                return vec
        vec = embed_text(text, dim=self.dim)
        vec.setflags(write=False)
        if self.memo_size > 0:
            with self._memo_lock:
                memo[text] = vec
                if len(memo) > self.memo_size:
                    memo.popitem(last=False)
        return vec

    def embed_batch(self, texts: List[str]) -> np.ndarray:
        """Embed several texts; returns an (n, dim) matrix.

        One lock acquisition sweeps the memo for every text (instead of a
        lock round-trip per text), repeated texts within the batch are
        computed once, and only the misses run the feature-hashing loop.
        Each row is the exact vector :meth:`embed` returns for that text —
        per-text embeddings are a pure function of the text, so batching
        changes the locking pattern, never the values.
        """
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        memo = self._memo
        rows: List[Optional[np.ndarray]] = [None] * len(texts)
        misses: Dict[str, List[int]] = {}
        with self._memo_lock:
            for i, text in enumerate(texts):
                vec = memo.get(text)
                if vec is not None:
                    memo.move_to_end(text)
                    rows[i] = vec
                else:
                    misses.setdefault(text, []).append(i)
        if misses:
            computed: Dict[str, np.ndarray] = {}
            for text in misses:
                vec = embed_text(text, dim=self.dim)
                vec.setflags(write=False)
                computed[text] = vec
                for i in misses[text]:
                    rows[i] = vec
            if self.memo_size > 0:
                with self._memo_lock:
                    for text, vec in computed.items():
                        memo[text] = vec
                        if len(memo) > self.memo_size:
                            memo.popitem(last=False)
        return np.stack(rows)

    @staticmethod
    def _texts_digest(texts: List[str]) -> bytes:
        """Collision-safe content key for a text sequence.

        Hashes the joined payload *and* the per-text lengths — the lengths
        uniquely partition the joined string, so ["a\\x1fb"] and ["a", "b"]
        can never share a key."""
        joined = "\x1f".join(texts).encode("utf-8", "surrogatepass")
        lengths = np.fromiter((len(t) for t in texts), dtype=np.int64)
        digest = hashlib.blake2b(joined, digest_size=16)
        digest.update(lengths.tobytes())
        return digest.digest()

    def embed_matrix(self, texts: List[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Embed a candidate pool once; returns ``(matrix, row_norms)``.

        Selection scans the same candidate pool on every call, so even a
        memo-hit :meth:`embed_batch` pays n dict touches plus an (n, dim)
        stack each time. This path hashes the pool's content once and
        caches the stacked matrix and its row norms (a small LRU of
        :data:`DEFAULT_MATRIX_MEMO_SIZE` pools) — embeddings are a pure
        function of the text, so a content hit can never go stale. Both
        arrays are returned read-only; rows and norms are exactly what
        :meth:`embed_batch` and ``np.linalg.norm(matrix, axis=1)`` produce.
        """
        key = self._texts_digest(texts)
        with self._memo_lock:
            hit = self._matrix_memo.get(key)
            if hit is not None:
                self._matrix_memo.move_to_end(key)
                return hit
        matrix = self.embed_batch(texts)
        norms = np.linalg.norm(matrix, axis=1)
        matrix.setflags(write=False)
        norms.setflags(write=False)
        with self._memo_lock:
            self._matrix_memo[key] = (matrix, norms)
            if len(self._matrix_memo) > DEFAULT_MATRIX_MEMO_SIZE:
                self._matrix_memo.popitem(last=False)
        return matrix, norms
