"""Property tests pinning the bit-parallel comparison engine to the oracle.

The engine's claim is exactness, not approximation: every score produced
by the engine -- scalar ``compare``, batched ``compare_many``, and the numpy
multi-pattern kernel behind them -- must be
byte-identical to the scalar oracle (``tests/oracles/compare.py``:
re-parse, re-normalise, Python DP per pair).  These tests sweep random signatures
and block-size bands, show that the engine applies the 7-gram gate the oracle
can switch off, and also pin the kernel itself against a textbook LCS DP.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import compare_engine
from repro.hashing.compare_engine import (
    CompareCache,
    eliminate_sequences,
    lcs_length,
    lcs_length_many,
    normalize_digest,
    signature_grams,
    signature_masks,
)
from repro.hashing.engine import B64_ALPHABET
from repro.hashing.ssdeep import FuzzyHasher

from oracles.compare import (
    compare_reference,
    default_cost_distance,
    has_common_substring,
    malformed,
    parse_digest,
    weighted_edit_distance,
)

# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #


def _random_signature(rng: random.Random, max_len: int = 64) -> str:
    """A signature-like string: base64 chars with occasional runs > 3."""
    out = []
    while len(out) < rng.randint(0, max_len):
        char = rng.choice(B64_ALPHABET)
        out.extend(char * rng.choice((1, 1, 1, 2, 5)))
    return "".join(out[:max_len])


def _random_digest(rng: random.Random, block_size: int | None = None,
                   max_len: int = 64) -> str:
    if block_size is None:
        block_size = 3 * (2 ** rng.randint(0, 6))
    return (f"{block_size}:{_random_signature(rng, max_len)}"
            f":{_random_signature(rng, max_len // 2)}")


def _sometimes_malformed(rng: random.Random, digest: str) -> str:
    """``digest``, or one tenth of the time a damaged form of it."""
    return rng.choice(malformed(digest)) if rng.random() < 0.1 else digest


def _lcs_reference(a: str, b: str) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[len(a)][len(b)]


# --------------------------------------------------------------------------- #
# the kernel itself
# --------------------------------------------------------------------------- #
class TestLcsKernel:
    def test_scalar_matches_textbook_dp(self):
        rng = random.Random(11)
        alphabet = "ABCDab01+/"
        for _ in range(500):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            assert lcs_length(signature_masks(a), len(a), b) == _lcs_reference(a, b)

    def test_patterns_wider_than_one_word_stay_exact(self):
        # The Python-int kernel widens past the machine word transparently.
        rng = random.Random(12)
        for _ in range(50):
            a = "".join(rng.choice("abcd") for _ in range(rng.randint(65, 200)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 200)))
            assert lcs_length(signature_masks(a), len(a), b) == _lcs_reference(a, b)

    def test_batch_matches_scalar(self):
        rng = random.Random(13)
        for _ in range(60):
            pattern = "".join(rng.choice(B64_ALPHABET)
                              for _ in range(rng.randint(1, 64)))
            masks = signature_masks(pattern)
            texts = ["".join(rng.choice(B64_ALPHABET)
                             for _ in range(rng.randint(0, 70)))
                     for _ in range(rng.randint(1, 40))]
            assert lcs_length_many([pattern] * len(texts), texts).tolist() == \
                [lcs_length(masks, len(pattern), text) for text in texts]

    def test_batch_with_empty_and_duplicate_texts(self):
        masks = signature_masks("ABCDEFAB")
        texts = ["", "ABCDEFAB", "FEDCBA", "ABCDEFAB", "", "xyz"]
        assert lcs_length_many(["ABCDEFAB"] * len(texts), texts).tolist() == \
            [lcs_length(masks, 8, text) for text in texts]

    def test_full_word_pattern_wraps_exactly(self):
        # m == 64 exercises the mod-2**64 wrap of the numpy path.
        rng = random.Random(14)
        pattern = "".join(rng.choice(B64_ALPHABET) for _ in range(64))
        texts = [pattern, pattern[::-1], pattern[1:] + "A"] + [
            "".join(rng.choice(B64_ALPHABET) for _ in range(64))
            for _ in range(20)]
        assert lcs_length_many([pattern] * len(texts), texts).tolist() == \
            [_lcs_reference(pattern, text) for text in texts]

    def test_ragged_batches_with_nul_and_non_latin1_characters(self):
        # The batch is one latin-1 encode padded with NUL: a NUL or a
        # character outside latin-1, in pattern or text, must not change a
        # single length -- whichever kernel ends up scoring the batch.
        rng = random.Random(16)
        alphabet = B64_ALPHABET + "\0\u00e9\u0142\u4e2d"
        for m in (1, 7, 33, 63, 64):
            for _ in range(25):
                pattern = "".join(rng.choice(alphabet) for _ in range(m))
                texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
                         for _ in range(rng.randint(10, 30))]
                masks = signature_masks(pattern)
                assert lcs_length_many([pattern] * len(texts), texts).tolist() == \
                    [lcs_length(masks, m, text) for text in texts]
        plain = ["ABCDEFGH", "HGFEDCBA", "", "ABxxGH"] * 3
        for odd in ("AB\0CD", "AB\u4e2dCD", "\u00e9ABCDEFGH"):
            texts = plain + [odd]
            assert lcs_length_many(["ABCDEFGH"] * len(texts), texts).tolist() == \
                [_lcs_reference("ABCDEFGH", text) for text in texts]

    def test_default_cost_distance_equals_weighted_dp(self):
        # The whole reduction: with costs 1/1/2/2 the weighted
        # Damerau-Levenshtein distance is len(a)+len(b) - 2*LCS(a,b).
        rng = random.Random(15)
        for _ in range(400):
            a = _random_signature(rng)
            b = _random_signature(rng)
            if not a or not b:
                continue
            assert default_cost_distance(a, b) == weighted_edit_distance(a, b)


# --------------------------------------------------------------------------- #
# the multi-pattern call: every row its own pattern, one sweep (hypothesis)
# --------------------------------------------------------------------------- #
#: Per case: the pattern and text alphabets and a row every example carries.
#: A NUL in a pattern and a character outside latin-1 send the whole call to
#: the scalar kernel.
_KERNEL_CASES = {
    "base64": (B64_ALPHABET, B64_ALPHABET, ("ABCDEFGH", "ABxxGH")),
    "nul-in-a-pattern": (B64_ALPHABET + "\0", B64_ALPHABET + "\0", ("AB\0CDEFG", "AB\0CD")),
    "non-latin-1-text": (B64_ALPHABET, B64_ALPHABET + "\u00e9\u4e2d",
                         ("ABCDEFGH", "AB\u4e2dCD")),
}


@st.composite
def _kernel_rows(draw, pattern_chars: str, text_chars: str,
                 forced: tuple[str, str]) -> list[tuple[str, str]]:
    """Rows over a few patterns of 1 to 64 characters, one of exactly 64,
    with texts of 0 to 64 characters and at least one empty text."""
    patterns = draw(st.lists(st.text(pattern_chars, min_size=1, max_size=64),
                             min_size=1, max_size=5))
    patterns.append(draw(st.text(pattern_chars, min_size=64, max_size=64)))
    rows = draw(st.lists(st.tuples(st.sampled_from(patterns),
                                   st.text(text_chars, max_size=64)),
                         min_size=compare_engine._MIN_BATCH, max_size=48))
    return draw(st.permutations([*rows, (patterns[-1], ""), forced]))


class TestMultiPatternKernel:
    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_one_call_equals_per_row_lcs_length(self, case, data):
        rows = data.draw(_kernel_rows(*_KERNEL_CASES[case]))
        patterns, texts = [pattern for pattern, _ in rows], [text for _, text in rows]
        expected = [lcs_length(signature_masks(pattern), len(pattern), text)
                    for pattern, text in rows]
        assert lcs_length_many(patterns, texts).tolist() == expected

    def test_a_batch_under_the_crossover_and_an_empty_one(self):
        rows = [("ABCDEFGH", "ABxxGH"), ("A" * 64, ""), ("Z", "ZZZ")]
        assert lcs_length_many(*zip(*rows)).tolist() == [4, 0, 1]
        assert lcs_length_many([], []).tolist() == []


# --------------------------------------------------------------------------- #
# the normalization cache
# --------------------------------------------------------------------------- #
class TestNormalizeDigest:
    def test_matches_parse_and_eliminate(self):
        digest = "96:aaaaaabcdefg:ZZZZZxy"
        normalized = normalize_digest(digest)
        block_size, sig1, sig2 = parse_digest(digest)
        assert normalized.block_size == block_size == 96
        assert normalized.s1 == eliminate_sequences(sig1)
        assert normalized.s2 == eliminate_sequences(sig2)
        assert normalized.grams1 == signature_grams(normalized.s1)

    def test_rejects_what_the_oracle_parser_rejects(self):
        for digest in ["not a hash", "", "3:AB:C:D", "007:AB:C", "\u0663:AB:C",
                       f"{'9' * 20}:AB:C", f"{'9' * 21}:AB:C", f"{'3' * 5000}:AB:C",
                       *malformed("96:aaaaaabcdefg:ZZZZZxy")]:
            assert (normalize_digest(digest) is None) == (parse_digest(digest) is None), \
                digest
        assert normalize_digest("not a hash") is None
        assert normalize_digest("0:abc:def") is None

    def test_gram_sets_mirror_common_substring_gate(self):
        rng = random.Random(16)
        for _ in range(300):
            a = _random_signature(rng)
            b = _random_signature(rng)
            assert bool(signature_grams(a) & signature_grams(b)) == \
                has_common_substring(a, b, 7)


# --------------------------------------------------------------------------- #
# oracle pin: engine scores must be byte-identical to compare_reference
# --------------------------------------------------------------------------- #
class TestReferenceEquivalence:
    def test_random_digests_across_blocksize_bands(self):
        rng = random.Random(17)
        bit = FuzzyHasher()
        for _ in range(600):
            block = 3 * (2 ** rng.randint(0, 4))
            # Same band, double band, and incompatible bands all appear.
            other = block * rng.choice((1, 1, 2, 4)) if rng.random() < 0.8 \
                else 3 * (2 ** rng.randint(0, 6))
            a = _sometimes_malformed(rng, _random_digest(rng, block))
            b = _sometimes_malformed(rng, _random_digest(rng, other))
            assert bit.compare(a, b) == compare_reference(a, b), (a, b)

    def test_related_payload_digests(self):
        # Digests of genuinely related payloads (non-zero scores, exact-100
        # fast paths, double-block alignments) rather than random strings.
        from repro.util.rng import SeededRNG

        bit = FuzzyHasher()
        base = SeededRNG(5).bytes(30000)
        variants = [base]
        for step in (4096, 1024, 256, 64):
            mutated = bytearray(base)
            for index in range(0, len(mutated), step):
                mutated[index] ^= 0xFF
            variants.append(bytes(mutated))
        variants.append(base[:15000])
        variants.append(base + base[:10000])
        digests = [str(bit.hash(payload)) for payload in variants]
        for a in digests:
            for b in digests:
                assert bit.compare(a, b) == compare_reference(a, b), (a, b)

    def test_the_engine_applies_the_common_gram_gate(self):
        """Pairs the ungated oracle scores but the gated one refuses exist,
        and the engine refuses them too."""
        rng = random.Random(18)
        bit = FuzzyHasher()
        refused = 0
        for _ in range(300):
            a = _random_digest(rng, 3, max_len=12)
            b = _random_digest(rng, 3, max_len=12)
            if compare_reference(a, b, require_common_substring=False) and \
                    not compare_reference(a, b):
                refused += 1
                assert bit.compare(a, b) == 0, (a, b)
        assert refused

    def test_empty_signatures_and_identity(self):
        bit = FuzzyHasher()
        cases = ["3::", "3:ABCDEFGH:", "3::ABCDEFGH", "6:ABCDEFGH:ABCD"]
        for a in cases:
            for b in cases:
                assert bit.compare(a, b) == compare_reference(a, b), (a, b)

    def test_a_colon_after_the_second_splits_nothing(self):
        # A digest splits at its first two colons only: a further ':' belongs
        # to sig2, in engine and oracle alike.
        bit = FuzzyHasher()
        weird = "3:ABCDEFGHIJ:KLM:NOPQRST"
        other = "3:ZYXWVUTSRQ:KLM:NOPQRSU"
        assert normalize_digest(weird).s2 == "KLM:NOPQRST"
        assert bit.compare(weird, weird) == compare_reference(weird, weird) == 100
        assert bit.compare(weird, other) == compare_reference(weird, other)
        assert bit.compare_many(weird, [other]) == [bit.compare(weird, other)]

    def test_invalid_digest_scores_0_in_engine_and_oracle(self):
        hasher = FuzzyHasher()
        for compare in (hasher.compare, compare_reference):
            for garbage in ("garbage", "", *malformed("3:AB:C")):
                assert compare(garbage, "3:AB:C") == compare("3:AB:C", garbage) == 0
                assert compare(garbage, garbage) == 0


# --------------------------------------------------------------------------- #
# compare_many: batch vs scalar
# --------------------------------------------------------------------------- #
class TestCompareMany:
    def test_matches_scalar_reference_loop(self):
        rng = random.Random(19)
        hasher = FuzzyHasher()
        for _ in range(20):
            baseline = _sometimes_malformed(
                rng, _random_digest(rng, 3 * (2 ** rng.randint(0, 3))))
            candidates = [_sometimes_malformed(
                rng, _random_digest(rng, 3 * (2 ** rng.randint(0, 5))))
                          for _ in range(rng.randint(0, 40))]
            # Repeat some candidates so the dedup/broadcast path runs.
            candidates += candidates[:len(candidates) // 3]
            rng.shuffle(candidates)
            assert hasher.compare_many(baseline, candidates) == \
                [compare_reference(baseline, digest) for digest in candidates]

    def test_malformed_digests_score_0_on_either_side(self):
        hasher = FuzzyHasher()
        baseline = "3:ABCDEFGHIJ:ABCDE"
        candidates = [baseline, "6:ABCDEFGHIJ:ABCDE", *malformed(baseline), ""]
        assert hasher.compare_many(baseline, candidates) == \
            [hasher.compare(baseline, candidate) for candidate in candidates] == \
            [100, hasher.compare(baseline, candidates[1])] + [0] * (len(candidates) - 2)
        for damaged in malformed(baseline):
            assert hasher.compare_many(damaged, candidates) == [0] * len(candidates)

    def test_empty_batch(self):
        assert FuzzyHasher().compare_many("3:ABCDEFG:HIJ", []) == []

    def test_feeds_the_shared_compare_lru(self):
        rng = random.Random(20)
        hasher = FuzzyHasher()
        baseline = _random_digest(rng, 3)
        candidates = [_random_digest(rng, 3) for _ in range(10)]
        hasher.compare_many(baseline, candidates)
        info = hasher.compare_cache_info()
        assert info.currsize == len(set(candidates))
        # A second sweep of the same pairs, candidates doubled, is all hits:
        # one lookup per unique pair, nothing recomputed.
        hasher.compare_many(baseline, candidates + candidates)
        after = hasher.compare_cache_info()
        assert after.misses == info.misses
        assert after.hits == info.hits + len(set(candidates))


# --------------------------------------------------------------------------- #
# the compare LRU and knob lifecycle
# --------------------------------------------------------------------------- #
class TestCompareCacheLifecycle:
    def test_lru_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(compare_engine, "COMPARE_CACHE_SIZE", 2)
        cache = CompareCache()
        cache.store({("a", "b"): 1, ("c", "d"): 2})
        assert cache.lookup([("a", "b")]) == {("a", "b"): 1}  # refresh ("a","b")
        cache.store({("e", "f"): 3})                          # evicts ("c","d")
        assert cache.lookup([("c", "d"), ("a", "b"), ("e", "f")]) == \
            {("a", "b"): 1, ("e", "f"): 3}
        cache.store({("a", "b"): 1, ("g", "h"): 4})  # re-storing refreshes: evicts ("e","f")
        assert cache.lookup([("e", "f")]) == {}
        assert cache.info() == (3, 2, 2, 2)

    def test_zero_size_cache_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(compare_engine, "COMPARE_CACHE_SIZE", 0)
        cache = CompareCache()
        cache.store({("a", "b"): 1})
        assert cache.info() == (0, 0, 0, 0)

    def test_hasher_is_freed_without_a_gc_cycle_pass(self):
        # The seed wrapped a bound method in lru_cache, pinning the hasher in
        # a reference cycle until a full GC pass.  The explicit cache holds
        # only strings and ints, so refcounting alone frees the hasher.
        gc.disable()
        try:
            hasher = FuzzyHasher()
            hasher.compare_many("3:ABCDEFGH:IJKL", ["3:ABCDEFGH:IJKL"])
            ref = weakref.ref(hasher)
            del hasher
            assert ref() is None
        finally:
            gc.enable()
