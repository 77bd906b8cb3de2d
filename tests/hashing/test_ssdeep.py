"""Tests for the CTPH (ssdeep) fuzzy hashing and comparison."""

import pytest

from repro.hashing.compare_engine import eliminate_sequences, normalize_digest
from repro.hashing.engine import fuzzy_digests
from repro.hashing.ssdeep import MIN_BLOCKSIZE, SPAMSUM_LENGTH, FuzzyHasher
from repro.util.rng import SeededRNG

from oracles.ctph import ReferenceHasher

_HASHER = FuzzyHasher()


def _random_bytes(size: int, seed: int = 0) -> bytes:
    return SeededRNG(seed).bytes(size)


def _block_size(digest: str) -> int:
    return normalize_digest(digest).block_size


class TestDigestParsing:
    def test_roundtrip(self):
        parsed = normalize_digest("96:abc:de")
        assert (parsed.block_size, parsed.s1, parsed.s2) == (96, "abc", "de")

    def test_parse_rejects_garbage(self):
        for digest in ("not a hash", "", "96:abcd", "96:", "96", ":abc:def"):
            assert normalize_digest(digest) is None, digest

    def test_parse_rejects_bad_blocksize(self):
        for digest in ("zero:abc:def", "0:abc:def", "-3:abc:def", " 3:abc:def",
                       "+3:abc:def", "3 :abc:def"):
            assert normalize_digest(digest) is None, digest

    def test_format(self):
        payload = _random_bytes(3000)
        assert _HASHER.hash(payload) == \
            "%d:%s:%s" % fuzzy_digests([payload], MIN_BLOCKSIZE, SPAMSUM_LENGTH)[0]


class TestHashing:
    def test_digest_format(self):
        digest = _HASHER.hash(_random_bytes(5000))
        block, sig1, sig2 = digest.split(":")
        assert int(block) >= MIN_BLOCKSIZE
        assert 1 <= len(sig1) <= SPAMSUM_LENGTH
        assert 1 <= len(sig2) <= SPAMSUM_LENGTH // 2 + 1

    def test_deterministic(self):
        data = _random_bytes(4096, seed=3)
        assert _HASHER.hash(data) == _HASHER.hash(data)

    def test_block_size_grows_with_input(self):
        small = _block_size(_HASHER.hash(_random_bytes(500)))
        large = _block_size(_HASHER.hash(_random_bytes(200_000)))
        assert large > small

    def test_block_size_compatible_relation(self):
        hasher = ReferenceHasher()
        assert hasher.initial_block_size(0) == MIN_BLOCKSIZE
        assert hasher.initial_block_size(MIN_BLOCKSIZE * SPAMSUM_LENGTH + 1) == MIN_BLOCKSIZE * 2
        edge = SeededRNG(19).bytes(MIN_BLOCKSIZE * SPAMSUM_LENGTH + 1)
        assert _block_size(FuzzyHasher().hash(edge)) == MIN_BLOCKSIZE * 2

    def test_empty_input(self):
        assert _HASHER.hash(b"") == f"{MIN_BLOCKSIZE}::"

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            FuzzyHasher().hash("a string")  # type: ignore[arg-type]


class TestComparison:
    def test_identical_inputs_score_100(self):
        data = _random_bytes(8192, seed=5)
        assert _HASHER.compare(_HASHER.hash(data), _HASHER.hash(data)) == 100

    def test_unrelated_inputs_score_0(self):
        a = _HASHER.hash(_random_bytes(8192, seed=5))
        b = _HASHER.hash(_random_bytes(8192, seed=6))
        assert _HASHER.compare(a, b) == 0

    def test_small_edit_scores_high(self):
        data = bytearray(_random_bytes(16384, seed=7))
        mutated = bytearray(data)
        for index in range(0, len(mutated), 2048):
            mutated[index] ^= 0xFF
        score = _HASHER.compare(_HASHER.hash(bytes(data)), _HASHER.hash(bytes(mutated)))
        assert 60 <= score < 100

    def test_more_edits_lower_score(self):
        data = bytearray(_random_bytes(16384, seed=8))
        light = bytearray(data)
        heavy = bytearray(data)
        for index in range(0, len(data), 4096):
            light[index] ^= 0xFF
        for index in range(0, len(data), 256):
            heavy[index] ^= 0xFF
        base = _HASHER.hash(bytes(data))
        assert _HASHER.compare(base, _HASHER.hash(bytes(light))) >= \
            _HASHER.compare(base, _HASHER.hash(bytes(heavy)))

    def test_prefix_insertion_still_matches(self):
        data = _random_bytes(12000, seed=9)
        shifted = _random_bytes(200, seed=10) + data
        assert _HASHER.compare(_HASHER.hash(data), _HASHER.hash(shifted)) > 50

    def test_incompatible_block_sizes_score_0(self):
        small = _HASHER.hash(_random_bytes(1000, seed=11))
        huge = _HASHER.hash(_random_bytes(400_000, seed=11))
        assert _HASHER.compare(small, huge) == 0

    def test_symmetry(self):
        a = _HASHER.hash(_random_bytes(9000, seed=12))
        b = _HASHER.hash(_random_bytes(9000, seed=13))
        assert _HASHER.compare(a, b) == _HASHER.compare(b, a)

    def test_score_range(self):
        a = _HASHER.hash(_random_bytes(5000, seed=14))
        b = _HASHER.hash(_random_bytes(5000, seed=15))
        assert 0 <= _HASHER.compare(a, b) <= 100

    def test_a_malformed_digest_scores_0(self):
        digest = _HASHER.hash(_random_bytes(4000, seed=16))
        assert _HASHER.compare(digest, digest) == 100
        block, sig1, _ = digest.split(":")
        for damaged in (f"{block}:{sig1}", f" {digest}", f"0:{sig1}:{sig1}", ""):
            assert _HASHER.compare(digest, damaged) == _HASHER.compare(damaged, digest) == 0
            assert _HASHER.compare(damaged, damaged) == 0

    def test_double_blocksize_comparison(self):
        """Hashes whose block sizes differ by exactly 2x are still comparable."""
        hasher = FuzzyHasher()
        data = _random_bytes(3 * 64 * 128, seed=17)  # exercises a larger block size
        base = hasher.hash(data)
        extended = hasher.hash(data + _random_bytes(len(data), seed=18))
        if _block_size(base) != _block_size(extended):
            assert _block_size(extended) in (_block_size(base) * 2, _block_size(base) // 2)
            assert hasher.compare(base, extended) >= 0


class TestCachedCompare:
    def test_cached_compare_matches_compare(self):
        hasher = FuzzyHasher()
        a = hasher.hash(_random_bytes(4096, seed=1))
        b = hasher.hash(_random_bytes(4096, seed=2))
        assert hasher.compare_many(a, [b]) == [hasher.compare(a, b)]
        assert hasher.compare_many(a, [b, a, b]) == \
            [hasher.compare(a, b), 100, hasher.compare(a, b)]

    def test_cache_hits_on_repeat_and_swapped_pairs(self):
        hasher = FuzzyHasher()
        a = hasher.hash(_random_bytes(4096, seed=3))
        b = hasher.hash(_random_bytes(4096, seed=4))
        first = hasher.compare_many(a, [b])
        info_after_first = hasher.compare_cache_info()
        # The pair key is order-normalised, so the swapped call hits too.
        assert hasher.compare_many(b, [a]) == first
        assert hasher.compare_many(a, [b]) == first
        info = hasher.compare_cache_info()
        assert info.hits == info_after_first.hits + 2
        assert info.misses == info_after_first.misses

    def test_caches_are_per_hasher_instance(self):
        first = FuzzyHasher()
        second = FuzzyHasher()
        a = first.hash(_random_bytes(2048, seed=5))
        first.compare_many(a, [a])
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
        assert _HASHER.compare(_HASHER.hash(base.encode()), _HASHER.hash(variant.encode())) > 40

    def test_disjoint_library_lists_score_low(self):
        a = "\n".join(f"/lib64/liba{i}.so" for i in range(20))
        b = "\n".join(f"/opt/rocm/librocm{i * 7}.so" for i in range(20))
        assert _HASHER.compare(_HASHER.hash(a.encode()), _HASHER.hash(b.encode())) < 30
