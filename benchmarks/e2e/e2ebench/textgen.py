"""Seeded prompt text.

Prompts are sequences of pseudo-words drawn from a fixed vocabulary, so two
independent prompts share almost no embedding features (a semantic-cache
miss, by construction) while a one-word edit of a prompt stays close to it
(an augment-tier hit). The vocabulary is constant; which words a prompt
gets is decided by the caller's seeded generator alone.
"""

from __future__ import annotations

from typing import List

import numpy as np

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr fl gr pl st tr".split()
_NUCLEI = "a e i o u ai ea ou".split()
_CODAS = "n r s t l m x nd rk st".split()

# 1040 two-syllable words of 5-7 letters: long enough to carry character
# trigrams in the embedding, many enough that two prompts rarely share one.
VOCABULARY: List[str] = [
    onset + nucleus + coda + nucleus2 + coda2
    for onset in _ONSETS
    for nucleus in _NUCLEI[:4]
    for coda in _CODAS[:5]
    for nucleus2, coda2 in (("a", "n"), ("o", "r"))
]

WORDS_PER_PROMPT = 8


def sentences(rng: np.random.Generator, n: int, tag: str) -> List[str]:
    """``n`` prompts of :data:`WORDS_PER_PROMPT` random words; ``tag`` plus
    the running number makes each one distinct from every other prompt of
    the run (tags differ between warm-up, pre-fill and window)."""
    picks = rng.integers(0, len(VOCABULARY), size=(n, WORDS_PER_PROMPT))
    return [
        f"{tag}{i} " + " ".join(VOCABULARY[j] for j in row) + "?"
        for i, row in enumerate(picks)
    ]


def one_word_edit(prompt: str, rng: np.random.Generator) -> str:
    """Replace one body word of ``prompt`` (never the leading tag)."""
    head, *body = prompt[:-1].split(" ")
    body[int(rng.integers(0, len(body)))] = VOCABULARY[int(rng.integers(0, len(VOCABULARY)))]
    return " ".join([head, *body]) + "?"
