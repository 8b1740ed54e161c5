"""Small shared helpers: seeding, text normalization, stable hashing.

These utilities are deliberately dependency-free (numpy aside) and pure, so
that every subsystem that uses them stays deterministic and easy to test.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, Iterable, List, Sequence

import numpy as np

_WORD_RE = re.compile(r"[A-Za-z0-9_']+")


def stable_hash(text: str, *, bits: int = 64) -> int:
    """Return a platform-stable non-negative hash of ``text``.

    Python's builtin :func:`hash` is randomized per process; experiments need
    hashes that are identical across runs, so we use blake2b.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


def rng_from(seed: object) -> np.random.Generator:
    """Build a numpy Generator from any hashable seed material."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, int):
        return np.random.default_rng(seed)
    return np.random.default_rng(stable_hash(str(seed), bits=63))


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace — used for fuzzy text comparison."""
    return " ".join(text.lower().split())


def words(text: str) -> List[str]:
    """Extract word tokens (letters, digits, underscore, apostrophe)."""
    return _WORD_RE.findall(text)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections (1.0 when both empty)."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-parallel algorithm in Hyyrö's formulation.

    The longer string is the pattern: bit i of ``peq[c]`` is set where its
    character i is ``c``, and one Python int holds a whole DP column as
    vertical deltas (``pv`` for +1, ``mv`` for -1), so every length takes
    the same path. The loop runs once per character of the shorter string
    (the word operations on a wide int stay in C), and the bottom row's
    value moves with the horizontal delta at bit m - 1. Each ``~`` is
    masked to m bits. The result equals the O(len(a) * len(b)) dynamic
    program, kept as ``repro.bench.perf.linear_levenshtein``.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: Dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    full = bit - 1
    last = len(a) - 1
    pv, mv, score = full, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv) & full
        mh = pv & xh
        if ph >> last:
            score += 1
        elif mh >> last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def levenshtein_ratio(a: str, b: str) -> float:
    """Normalized edit similarity in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity of two equal-length vectors (0.0 for zero vectors)."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def softmax(xs: Sequence[float]) -> List[float]:
    """Numerically stable softmax."""
    if not xs:
        return []
    m = max(xs)
    exps = [math.exp(x - m) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def chunked(items: Sequence, size: int) -> List[Sequence]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    return [items[i : i + size] for i in range(0, len(items), size)]
