"""Unit tests for the shared helpers in repro._util."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    chunked,
    cosine,
    jaccard,
    levenshtein,
    levenshtein_ratio,
    normalize_text,
    rng_from,
    softmax,
    stable_hash,
    words,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_different_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_bits_bound(self):
        assert 0 <= stable_hash("x", bits=16) < (1 << 16)


class TestRngFrom:
    def test_int_seed_reproducible(self):
        assert rng_from(7).random() == rng_from(7).random()

    def test_string_seed_reproducible(self):
        assert rng_from("seed").random() == rng_from("seed").random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert rng_from(rng) is rng


class TestTextHelpers:
    def test_normalize(self):
        assert normalize_text("  Hello\t WORLD ") == "hello world"

    def test_words(self):
        assert words("it's a test-case 42") == ["it's", "a", "test", "case", "42"]

    def test_jaccard(self):
        assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard([], []) == 1.0
        assert jaccard(["a"], []) == 0.0

    def test_levenshtein(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_levenshtein_ratio(self):
        assert levenshtein_ratio("", "") == 1.0
        assert levenshtein_ratio("ab", "ab") == 1.0
        assert 0.0 <= levenshtein_ratio("abcd", "wxyz") <= 1.0


class TestNumericHelpers:
    def test_cosine_bounds(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine([1, 1], [1, 1]) == pytest.approx(1.0)
        assert cosine([0, 0], [1, 1]) == 0.0

    def test_softmax_sums_to_one(self):
        out = softmax([1.0, 2.0, 3.0])
        assert sum(out) == pytest.approx(1.0)
        assert out == sorted(out)

    def test_softmax_empty(self):
        assert softmax([]) == []

    def test_softmax_stability(self):
        out = softmax([1e5, 1e5 + 1])
        assert all(np.isfinite(out))

    def test_chunked(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert chunked([], 3) == []
        with pytest.raises(ValueError):
            chunked([1], 0)


@settings(max_examples=50, deadline=None)
@given(a=st.text(max_size=15), b=st.text(max_size=15))
def test_levenshtein_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@settings(max_examples=50, deadline=None)
@given(a=st.text(max_size=10), b=st.text(max_size=10), c=st.text(max_size=10))
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# ASCII, accented, a combining accent and astral code points: the kernel
# keys its bitmasks by code point, as the seed DP compared them.
_EDIT_ALPHABET = st.sampled_from(
    list("abc de") + ["\u00e9", "\u00fc", "\u0301", "\u4e2d", "\U0001f600", "\U00010348"]
)
# Up to 200 characters, so a column crosses the 64- and 128-bit marks.
_EDIT_TEXT = st.integers(0, 200).flatmap(
    lambda n: st.text(_EDIT_ALPHABET, min_size=n, max_size=n)
)


@st.composite
def _edit_pairs(draw):
    """A string against either an unrelated one or a spliced copy of itself."""
    a = draw(_EDIT_TEXT)
    if draw(st.booleans()):
        return a, draw(_EDIT_TEXT)
    i = draw(st.integers(0, len(a)))
    j = draw(st.integers(i, len(a)))
    return a, a[:i] + draw(st.text(_EDIT_ALPHABET, max_size=8)) + a[j:]


class TestLevenshteinKernel:
    """The bit-parallel kernel against the frozen seed dynamic program."""

    @settings(max_examples=150, deadline=None)
    @given(pair=_edit_pairs())
    def test_matches_the_seed_dp(self, pair):
        from repro.bench.perf import linear_levenshtein

        a, b = pair
        expected = linear_levenshtein(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_equal_strings_and_an_empty_side(self, n):
        text = ("ab\u0301\U0001f600" * 60)[:n]
        assert levenshtein(text, text) == 0
        assert levenshtein(text, "") == levenshtein("", text) == n
        assert levenshtein(text, text[1:] + "z") == levenshtein(text[1:] + "z", text)

    def test_column_word_boundaries(self):
        from repro.bench.perf import linear_levenshtein

        for n in (63, 64, 65, 127, 128, 129):
            a = ("kitten sitting " * 20)[:n]
            for b in (a[:-1], a[1:] + "x", a[: n // 2] + "q" + a[n // 2 + 1 :], "sitting"):
                assert levenshtein(a, b) == levenshtein(b, a) == linear_levenshtein(a, b)


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.sampled_from("abcdef"), max_size=12), ys=st.lists(st.sampled_from("abcdef"), max_size=12))
def test_jaccard_bounds_and_symmetry(xs, ys):
    value = jaccard(xs, ys)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(ys, xs)
