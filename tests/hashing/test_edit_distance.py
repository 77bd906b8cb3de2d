"""Tests for the edit distances used in fuzzy-hash comparison."""

import pytest

from oracles.compare import (
    damerau_levenshtein,
    has_common_substring,
    levenshtein,
    weighted_edit_distance,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("abc", "abd", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")


class TestDamerauLevenshtein:
    def test_transposition_counts_one(self):
        assert damerau_levenshtein("ab", "ba") == 1
        assert levenshtein("ab", "ba") == 2

    def test_ca_abc(self):
        # Classic OSA example: restricted Damerau distance is 3.
        assert damerau_levenshtein("ca", "abc") == 3

    def test_equal_strings(self):
        assert damerau_levenshtein("same", "same") == 0


class TestWeightedEditDistance:
    def test_default_substitution_costs_two(self):
        assert weighted_edit_distance("abc", "abd") == 2

    def test_substitution_never_worse_than_indel_pair(self):
        # With substitute=2 == insert+delete, distance equals 2 either way.
        assert weighted_edit_distance("a", "b") == 2

    def test_custom_costs(self):
        assert weighted_edit_distance("abc", "abd", substitute_cost=5,
                                      insert_cost=1, delete_cost=1) == 2  # delete+insert wins

    def test_transpose_disabled(self):
        assert weighted_edit_distance("ab", "ba", transpose_cost=None,
                                      substitute_cost=1) == 2

    def test_empty_inputs(self):
        assert weighted_edit_distance("", "xyz") == 3
        assert weighted_edit_distance("xyz", "", delete_cost=4) == 12

    def test_triangle_inequality_sample(self):
        a, b, c = "sirensoftware", "sirensw", "software"
        assert weighted_edit_distance(a, c) <= \
            weighted_edit_distance(a, b) + weighted_edit_distance(b, c)


class TestEarlyExitBound:
    def test_exact_when_within_bound(self):
        assert weighted_edit_distance("kitten", "sitting", bound=100) == \
            weighted_edit_distance("kitten", "sitting")

    def test_exceeding_bound_returns_value_above_bound(self):
        a, b = "aaaaaaaaaa", "zzzzzzzzzz"
        exact = weighted_edit_distance(a, b)
        bounded = weighted_edit_distance(a, b, bound=3)
        assert bounded > 3
        assert bounded <= exact  # a lower bound on the true distance

    def test_bound_equal_to_distance_is_exact(self):
        a, b = "abcdef", "abcxef"
        exact = weighted_edit_distance(a, b)
        assert weighted_edit_distance(a, b, bound=exact) == exact

    def test_threshold_decisions_match_unbounded(self):
        """The fuzzy scorer only asks "is the distance >= len(a)+len(b)?";
        that answer must be identical with and without the bound."""
        import random

        alphabet = "ABCDab01+/"
        rng = random.Random(99)
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            if not a or not b:
                continue
            bound = len(a) + len(b) - 1
            exact = weighted_edit_distance(a, b)
            bounded = weighted_edit_distance(a, b, bound=bound)
            assert (exact > bound) == (bounded > bound)
            if exact <= bound:
                assert bounded == exact

    def test_bound_with_transpositions_stays_safe(self):
        # Transpositions skip one DP row; the exit must consider both recent
        # rows or it could cut off a cheap transposition path.
        a, b = "ab" * 10, "ba" * 10
        exact = weighted_edit_distance(a, b)
        for bound in range(0, exact + 5):
            bounded = weighted_edit_distance(a, b, bound=bound)
            assert (exact > bound) == (bounded > bound)
            if exact <= bound:
                assert bounded == exact

    def test_bound_zero(self):
        # bound=0 only admits distance 0, i.e. equal strings; everything else
        # must come back strictly positive (and equal strings exactly 0).
        assert weighted_edit_distance("same", "same", bound=0) == 0
        assert weighted_edit_distance("", "", bound=0) == 0
        for a, b in (("a", "b"), ("ab", "ba"), ("abc", "abcd"), ("x", "")):
            assert weighted_edit_distance(a, b, bound=0) > 0

    def test_transposition_exactly_at_the_early_exit_boundary(self):
        # One adjacent swap costs 2: with bound=2 the exit must not fire
        # before the transposition lookback (prev2) has had its say, and the
        # result must be exact; with bound=1 the true distance exceeds the
        # bound and the return value must reflect that.
        for prefix in ("", "xx", "xyxy"):
            a = prefix + "ab"
            b = prefix + "ba"
            assert weighted_edit_distance(a, b) == 2
            assert weighted_edit_distance(a, b, bound=2) == 2
            assert weighted_edit_distance(a, b, bound=1) > 1

    def test_bounded_equals_unbounded_whenever_distance_fits(self):
        # The contract: distances up to the bound are exact, for every bound
        # at or above the true distance -- swept over random string pairs.
        import random

        rng = random.Random(123)
        alphabet = "ABab01+/"
        for _ in range(150):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            exact = weighted_edit_distance(a, b)
            for bound in (exact, exact + 1, exact + 7, 10 ** 6):
                assert weighted_edit_distance(a, b, bound=bound) == exact


class TestHasCommonSubstring:
    def test_short_strings_never_match(self):
        assert not has_common_substring("abc", "abc", length=7)

    def test_shared_7_gram(self):
        assert has_common_substring("xxABCDEFGxx", "yyABCDEFGyy", length=7)

    def test_no_shared_7_gram(self):
        assert not has_common_substring("abcdefghijk", "zyxwvutsrqp", length=7)

    def test_identical_long_strings(self):
        text = "A" * 3 + "BCDEFGH" + "I" * 3
        assert has_common_substring(text, text, length=7)
