"""Tests for the CTPH (ssdeep) fuzzy hashing and comparison."""

import pytest

from repro.hashing.ssdeep import (
    MIN_BLOCKSIZE,
    SPAMSUM_LENGTH,
    FuzzyHash,
    FuzzyHasher,
    compare,
    eliminate_sequences,
    fuzzy_hash,
    fuzzy_hash_text,
)
from repro.util.rng import SeededRNG

from oracles.ctph import ReferenceHasher


def _random_bytes(size: int, seed: int = 0) -> bytes:
    return SeededRNG(seed).bytes(size)


class TestFuzzyHashParsing:
    def test_roundtrip(self):
        digest = FuzzyHash(block_size=96, sig1="abc", sig2="de")
        assert FuzzyHash.parse(str(digest)) == digest

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FuzzyHash.parse("not a hash")

    def test_parse_rejects_bad_blocksize(self):
        with pytest.raises(ValueError):
            FuzzyHash.parse("zero:abc:def")
        with pytest.raises(ValueError):
            FuzzyHash.parse("0:abc:def")

    def test_format(self):
        assert str(FuzzyHash(3, "AB", "C")) == "3:AB:C"


class TestHashing:
    def test_digest_format(self):
        digest = fuzzy_hash(_random_bytes(5000))
        block, sig1, sig2 = digest.split(":")
        assert int(block) >= MIN_BLOCKSIZE
        assert 1 <= len(sig1) <= SPAMSUM_LENGTH
        assert 1 <= len(sig2) <= SPAMSUM_LENGTH // 2 + 1

    def test_deterministic(self):
        data = _random_bytes(4096, seed=3)
        assert fuzzy_hash(data) == fuzzy_hash(data)

    def test_block_size_grows_with_input(self):
        small = FuzzyHash.parse(fuzzy_hash(_random_bytes(500)))
        large = FuzzyHash.parse(fuzzy_hash(_random_bytes(200_000)))
        assert large.block_size > small.block_size

    def test_block_size_compatible_relation(self):
        hasher = ReferenceHasher()
        assert hasher.initial_block_size(0) == MIN_BLOCKSIZE
        assert hasher.initial_block_size(MIN_BLOCKSIZE * SPAMSUM_LENGTH + 1) == MIN_BLOCKSIZE * 2
        edge = SeededRNG(19).bytes(MIN_BLOCKSIZE * SPAMSUM_LENGTH + 1)
        assert FuzzyHasher().hash(edge).block_size == MIN_BLOCKSIZE * 2

    def test_empty_input(self):
        digest = FuzzyHash.parse(fuzzy_hash(b""))
        assert digest.block_size == MIN_BLOCKSIZE
        assert digest.sig1 == "" and digest.sig2 == ""

    def test_text_hashing_is_utf8(self):
        assert fuzzy_hash_text("modules:a:b") == fuzzy_hash("modules:a:b".encode("utf-8"))

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            FuzzyHasher().hash("a string")  # type: ignore[arg-type]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FuzzyHasher(min_block_size=0)
        with pytest.raises(ValueError):
            FuzzyHasher(signature_length=4)


class TestComparison:
    def test_identical_inputs_score_100(self):
        data = _random_bytes(8192, seed=5)
        assert compare(fuzzy_hash(data), fuzzy_hash(data)) == 100

    def test_unrelated_inputs_score_0(self):
        a = fuzzy_hash(_random_bytes(8192, seed=5))
        b = fuzzy_hash(_random_bytes(8192, seed=6))
        assert compare(a, b) == 0

    def test_small_edit_scores_high(self):
        data = bytearray(_random_bytes(16384, seed=7))
        mutated = bytearray(data)
        for index in range(0, len(mutated), 2048):
            mutated[index] ^= 0xFF
        score = compare(fuzzy_hash(bytes(data)), fuzzy_hash(bytes(mutated)))
        assert 60 <= score < 100

    def test_more_edits_lower_score(self):
        data = bytearray(_random_bytes(16384, seed=8))
        light = bytearray(data)
        heavy = bytearray(data)
        for index in range(0, len(data), 4096):
            light[index] ^= 0xFF
        for index in range(0, len(data), 256):
            heavy[index] ^= 0xFF
        base = fuzzy_hash(bytes(data))
        assert compare(base, fuzzy_hash(bytes(light))) >= compare(base, fuzzy_hash(bytes(heavy)))

    def test_prefix_insertion_still_matches(self):
        data = _random_bytes(12000, seed=9)
        shifted = _random_bytes(200, seed=10) + data
        assert compare(fuzzy_hash(data), fuzzy_hash(shifted)) > 50

    def test_incompatible_block_sizes_score_0(self):
        small = fuzzy_hash(_random_bytes(1000, seed=11))
        huge = fuzzy_hash(_random_bytes(400_000, seed=11))
        assert compare(small, huge) == 0

    def test_symmetry(self):
        a = fuzzy_hash(_random_bytes(9000, seed=12))
        b = fuzzy_hash(_random_bytes(9000, seed=13))
        assert compare(a, b) == compare(b, a)

    def test_score_range(self):
        a = fuzzy_hash(_random_bytes(5000, seed=14))
        b = fuzzy_hash(_random_bytes(5000, seed=15))
        assert 0 <= compare(a, b) <= 100

    def test_accepts_strings_and_objects(self):
        data = _random_bytes(4000, seed=16)
        digest = fuzzy_hash(data)
        parsed = FuzzyHash.parse(digest)
        assert compare(digest, parsed) == 100

    def test_double_blocksize_comparison(self):
        """Hashes whose block sizes differ by exactly 2x are still comparable."""
        hasher = FuzzyHasher()
        data = _random_bytes(3 * 64 * 128, seed=17)  # exercises a larger block size
        base = hasher.hash(data)
        extended = hasher.hash(data + _random_bytes(len(data), seed=18))
        if base.block_size != extended.block_size:
            assert extended.block_size in (base.block_size * 2, base.block_size // 2)
            assert hasher.compare(base, extended) >= 0


class TestCachedCompare:
    def test_cached_compare_matches_compare(self):
        hasher = FuzzyHasher()
        a = hasher.hash(_random_bytes(4096, seed=1))
        b = hasher.hash(_random_bytes(4096, seed=2))
        assert hasher.compare_cached(a, b) == hasher.compare(a, b)
        assert hasher.compare_cached(str(a), str(b)) == hasher.compare(a, b)

    def test_cache_hits_on_repeat_and_swapped_pairs(self):
        hasher = FuzzyHasher()
        a = str(hasher.hash(_random_bytes(4096, seed=3)))
        b = str(hasher.hash(_random_bytes(4096, seed=4)))
        first = hasher.compare_cached(a, b)
        info_after_first = hasher.compare_cache_info()
        # The pair key is order-normalised, so the swapped call hits too.
        assert hasher.compare_cached(b, a) == first
        assert hasher.compare_cached(a, b) == first
        info = hasher.compare_cache_info()
        assert info.hits == info_after_first.hits + 2
        assert info.misses == info_after_first.misses

    def test_caches_are_per_hasher_instance(self):
        first = FuzzyHasher()
        second = FuzzyHasher()
        a = str(first.hash(_random_bytes(2048, seed=5)))
        first.compare_cached(a, a)
        assert second.compare_cache_info().currsize == 0


class TestEliminateSequences:
    def test_collapses_long_runs(self):
        assert eliminate_sequences("aaaaaabc") == "aaabc"

    def test_short_runs_untouched(self):
        assert eliminate_sequences("aaabbbccc") == "aaabbbccc"

    def test_short_string_untouched(self):
        assert eliminate_sequences("ab") == "ab"


class TestTextSimilarityUseCases:
    """The collector hashes module/library lists; check that behaves sensibly."""

    def test_similar_library_lists_score_high(self):
        base = "\n".join(f"/opt/cray/pe/lib64/lib{name}.so" for name in
                         ["sci_cray", "mpi_cray", "pmi", "fabric", "quadmath", "pthread",
                          "hdf5", "netcdf", "gfortran", "m", "c", "dl", "rt", "z"])
        variant = base.replace("hdf5", "hdf5_parallel")
        assert compare(fuzzy_hash_text(base), fuzzy_hash_text(variant)) > 40

    def test_disjoint_library_lists_score_low(self):
        a = "\n".join(f"/lib64/liba{i}.so" for i in range(20))
        b = "\n".join(f"/opt/rocm/librocm{i * 7}.so" for i in range(20))
        assert compare(fuzzy_hash_text(a), fuzzy_hash_text(b)) < 30
