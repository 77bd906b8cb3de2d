"""Property tests pinning the bit-parallel comparison engine to the oracle.

The engine's claim is exactness, not approximation: every score produced
by the engine -- scalar ``compare``, batched ``compare_many``, and the numpy
one-vs-many kernel behind it -- must be
byte-identical to the scalar oracle (``tests/oracles/compare.py``:
re-parse, re-normalise, Python DP per pair).  These tests sweep random signatures,
block-size bands, both ``require_common_substring`` settings and non-default
hasher geometries, and also pin the kernel itself against a textbook LCS DP.
"""

import gc
import random
import weakref
from functools import partial

import pytest

from repro.hashing.compare_engine import (
    CompareCache,
    default_cost_distance,
    lcs_length,
    lcs_length_many,
    normalize_digest,
    signature_grams,
    signature_masks,
)
from repro.hashing.engine import B64_ALPHABET
from repro.hashing.ssdeep import FuzzyHash, FuzzyHasher, eliminate_sequences

from oracles.compare import compare_reference, has_common_substring, weighted_edit_distance

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
    return str(FuzzyHash(block_size=block_size,
                         sig1=_random_signature(rng, max_len),
                         sig2=_random_signature(rng, max_len // 2)))


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
        # Custom signature_length configurations can normalise to > 64 chars;
        # the Python-int kernel widens past the machine word transparently.
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
            assert lcs_length_many(masks, len(pattern), texts) == \
                [lcs_length(masks, len(pattern), text) for text in texts]

    def test_batch_with_empty_and_duplicate_texts(self):
        masks = signature_masks("ABCDEFAB")
        texts = ["", "ABCDEFAB", "FEDCBA", "ABCDEFAB", "", "xyz"]
        assert lcs_length_many(masks, 8, texts) == \
            [lcs_length(masks, 8, text) for text in texts]

    def test_full_word_pattern_wraps_exactly(self):
        # m == 64 exercises the mod-2**64 wrap of the numpy path.
        rng = random.Random(14)
        pattern = "".join(rng.choice(B64_ALPHABET) for _ in range(64))
        masks = signature_masks(pattern)
        texts = [pattern, pattern[::-1], pattern[1:] + "A"] + [
            "".join(rng.choice(B64_ALPHABET) for _ in range(64))
            for _ in range(20)]
        assert lcs_length_many(masks, 64, texts) == \
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
                assert lcs_length_many(masks, m, texts) == \
                    [lcs_length(masks, m, text) for text in texts]
        masks = signature_masks("ABCDEFGH")
        plain = ["ABCDEFGH", "HGFEDCBA", "", "ABxxGH"] * 3
        for odd in ("AB\0CD", "AB\u4e2dCD", "\u00e9ABCDEFGH"):
            texts = plain + [odd]
            assert lcs_length_many(masks, 8, texts) == \
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
# the normalization cache
# --------------------------------------------------------------------------- #
class TestNormalizeDigest:
    def test_matches_parse_and_eliminate(self):
        digest = "96:aaaaaabcdefg:ZZZZZxy"
        normalized = normalize_digest(digest)
        parsed = FuzzyHash.parse(digest)
        assert normalized.block_size == 96
        assert normalized.s1 == eliminate_sequences(parsed.sig1)
        assert normalized.s2 == eliminate_sequences(parsed.sig2)
        assert normalized.grams1 == signature_grams(normalized.s1)
        assert normalized.masks2 == signature_masks(normalized.s2)

    def test_rejects_garbage_like_parse(self):
        with pytest.raises(ValueError):
            normalize_digest("not a hash")
        with pytest.raises(ValueError):
            normalize_digest("0:abc:def")

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
    @pytest.mark.parametrize("require_common_substring", [True, False])
    def test_random_digests_across_blocksize_bands(self, require_common_substring):
        rng = random.Random(17)
        bit = FuzzyHasher(require_common_substring=require_common_substring)
        for _ in range(600):
            block = 3 * (2 ** rng.randint(0, 4))
            # Same band, double band, and incompatible bands all appear.
            other = block * rng.choice((1, 1, 2, 4)) if rng.random() < 0.8 \
                else 3 * (2 ** rng.randint(0, 6))
            a = _random_digest(rng, block)
            b = _random_digest(rng, other)
            assert bit.compare(a, b) == compare_reference(bit, a, b), (a, b)

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
                assert bit.compare(a, b) == compare_reference(bit, a, b), (a, b)

    def test_non_default_hasher_geometry(self):
        rng = random.Random(18)
        for min_block, sig_len in ((1, 8), (5, 32), (3, 128)):
            bit = FuzzyHasher(min_block_size=min_block, signature_length=sig_len)
            for _ in range(150):
                a = _random_digest(rng, min_block * (2 ** rng.randint(0, 3)),
                                   max_len=min(sig_len, 160))
                b = _random_digest(rng, min_block * (2 ** rng.randint(0, 3)),
                                   max_len=min(sig_len, 160))
                assert bit.compare(a, b) == compare_reference(bit, a, b), (a, b)

    def test_empty_signatures_and_identity(self):
        bit = FuzzyHasher()
        cases = ["3::", "3:ABCDEFGH:", "3::ABCDEFGH", "6:ABCDEFGH:ABCD"]
        for a in cases:
            for b in cases:
                assert bit.compare(a, b) == compare_reference(bit, a, b), (a, b)

    def test_fuzzyhash_objects_score_from_components_not_reparse(self):
        # Hand-constructed FuzzyHash objects may not survive a str()+re-parse
        # round trip (a ':' inside sig1 shifts the split); engine and oracle
        # must both score the object's actual components.
        bit = FuzzyHasher()
        weird = FuzzyHash(block_size=3, sig1="ABC:DEFGHIJ", sig2="KLMNOP")
        plain = FuzzyHash(block_size=3, sig1="ABC:DEFGHIJ", sig2="KLMNOP")
        assert bit.compare(weird, plain) == compare_reference(bit, weird, plain) == 100
        # compare_many honours its scalar-equivalence contract for objects too.
        assert bit.compare_many(weird, [plain]) == [bit.compare(weird, plain)]

    def test_invalid_digest_raises_value_error_from_engine_and_oracle(self):
        hasher = FuzzyHasher()
        for compare in (hasher.compare, partial(compare_reference, hasher)):
            with pytest.raises(ValueError):
                compare("garbage", "3:AB:C")


# --------------------------------------------------------------------------- #
# compare_many: batch vs scalar
# --------------------------------------------------------------------------- #
class TestCompareMany:
    @pytest.mark.parametrize("require_common_substring", [True, False])
    def test_matches_scalar_reference_loop(self, require_common_substring):
        rng = random.Random(19)
        hasher = FuzzyHasher(require_common_substring=require_common_substring)
        for _ in range(20):
            baseline = _random_digest(rng, 3 * (2 ** rng.randint(0, 3)))
            candidates = [_random_digest(rng, 3 * (2 ** rng.randint(0, 5)))
                          for _ in range(rng.randint(0, 40))]
            # Repeat some candidates so the dedup/broadcast path runs.
            candidates += candidates[:len(candidates) // 3]
            rng.shuffle(candidates)
            assert hasher.compare_many(baseline, candidates) == \
                [compare_reference(hasher, baseline, digest) for digest in candidates]

    def test_accepts_fuzzyhash_objects(self):
        hasher = FuzzyHasher()
        baseline = FuzzyHash(3, "ABCDEFGHIJ", "ABCDE")
        candidates = [FuzzyHash(3, "ABCDEFGHIJ", "ABCDE"), "6:ABCDEFGHIJ:ABCDE"]
        assert hasher.compare_many(baseline, candidates) == \
            [hasher.compare(baseline, candidate) for candidate in candidates]

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
        # Scalar lookups of the same pairs are now all hits.
        for candidate in candidates:
            hasher.compare_cached(baseline, candidate)
        after = hasher.compare_cache_info()
        assert after.misses == info.misses
        assert after.hits == info.hits + len(candidates)

    def test_consumes_lru_entries_from_scalar_calls(self):
        rng = random.Random(21)
        hasher = FuzzyHasher()
        baseline = _random_digest(rng, 3)
        candidate = _random_digest(rng, 3)
        hasher.compare_cached(baseline, candidate)
        info = hasher.compare_cache_info()
        hasher.compare_many(baseline, [candidate, candidate])
        after = hasher.compare_cache_info()
        assert after.misses == info.misses  # the batch never recomputed it
        assert after.hits == info.hits + 1  # one lookup per unique pair


# --------------------------------------------------------------------------- #
# the compare LRU and knob lifecycle
# --------------------------------------------------------------------------- #
class TestCompareCacheLifecycle:
    def test_cache_clear_empties_and_resets(self):
        hasher = FuzzyHasher()
        hasher.compare_cached("3:ABCDEFGH:IJKL", "3:ABCDEFGH:IJKL")
        assert hasher.compare_cache_info().currsize == 1
        hasher.compare_cache_clear()
        info = hasher.compare_cache_info()
        assert info.currsize == 0 and info.hits == 0 and info.misses == 0

    def test_gate_change_clears_the_cache(self):
        hasher = FuzzyHasher()
        hasher.compare_cached("3:ABCDEFGH:IJKL", "3:ABCDEFGH:IJKL")
        hasher.require_common_substring = False
        assert hasher.compare_cache_info().currsize == 0
        # Re-assigning the same value keeps the (new) cache intact.
        hasher.compare_cached("3:ABCDEFGH:IJKL", "3:ABCDEFGH:IJKL")
        hasher.require_common_substring = False
        assert hasher.compare_cache_info().currsize == 1

    def test_lru_evicts_least_recently_used(self):
        cache = CompareCache(maxsize=2)
        cache.put(("a", "b"), 1)
        cache.put(("c", "d"), 2)
        assert cache.get(("a", "b")) == 1  # refresh ("a","b")
        cache.put(("e", "f"), 3)           # evicts ("c","d")
        assert cache.get(("c", "d")) is None
        assert cache.get(("a", "b")) == 1
        assert cache.get(("e", "f")) == 3

    def test_zero_size_cache_stores_nothing(self):
        cache = CompareCache(maxsize=0)
        cache.put(("a", "b"), 1)
        assert cache.info().currsize == 0

    def test_hasher_is_freed_without_a_gc_cycle_pass(self):
        # The seed wrapped a bound method in lru_cache, pinning the hasher in
        # a reference cycle until a full GC pass.  The explicit cache holds
        # only strings and ints, so refcounting alone frees the hasher.
        gc.disable()
        try:
            hasher = FuzzyHasher()
            hasher.compare_cached("3:ABCDEFGH:IJKL", "3:ABCDEFGH:IJKL")
            ref = weakref.ref(hasher)
            del hasher
            assert ref() is None
        finally:
            gc.enable()
