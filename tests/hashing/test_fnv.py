"""Tests for the FNV hashes and the ssdeep piece hash."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.fnv import (
    FNV32_PRIME,
    SSDEEP_HASH_INIT,
    fnv1_32,
    fnv1a_32,
    fnv1a_64,
    sum_hash,
    sum_hash_bytes,
)


class TestSumHash:
    def test_single_step(self):
        assert sum_hash(0x41, SSDEEP_HASH_INIT) == \
            ((SSDEEP_HASH_INIT * FNV32_PRIME) & 0xFFFFFFFF) ^ 0x41

    def test_bytes_equivalent_to_steps(self):
        state = SSDEEP_HASH_INIT
        for byte in b"hello":
            state = sum_hash(byte, state)
        assert state == sum_hash_bytes(b"hello")

    def test_stays_32_bit(self):
        assert 0 <= sum_hash_bytes(bytes(range(256)) * 10) < 2 ** 32


class TestFNV:
    def test_fnv1a_32_known_vector(self):
        # Standard FNV-1a test vectors.
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C

    def test_fnv1a_64_known_vector(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_fnv1_differs_from_fnv1a(self):
        assert fnv1_32(b"hello world") != fnv1a_32(b"hello world")

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"abc") != fnv1a_64(b"abd")

    def test_deterministic(self):
        assert fnv1a_64(b"payload") == fnv1a_64(b"payload")

    def test_unrolled_loop_matches_per_byte_reference(self):
        """fnv1a_64 defers the 64-bit mask across a 4-byte unroll; it must
        agree with the per-byte definition at every length mod 4."""
        def reference(data: bytes) -> int:
            state = 0xCBF29CE484222325
            for byte in data:
                state = ((state ^ byte) * 0x00000100000001B3) & 0xFFFFFFFFFFFFFFFF
            return state

        from repro.util.rng import SeededRNG

        for length in (0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1001, 4096):
            payload = SeededRNG(length).bytes(length)
            assert fnv1a_64(payload) == reference(payload)

    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**70))
    @settings(max_examples=300, deadline=None)
    def test_fnv1a_is_the_per_byte_loop_at_any_length_and_offset(self, data, offset):
        """Both widths share one unrolled loop; the byte loop is the definition."""
        def reference(prime: int, mask: int) -> int:
            state = offset & mask
            for byte in data:
                state = ((state ^ byte) * prime) & mask
            return state

        assert fnv1a_32(data, offset) == reference(FNV32_PRIME, 0xFFFFFFFF)
        assert fnv1a_64(data, offset) == reference(0x00000100000001B3,
                                                   0xFFFFFFFFFFFFFFFF)

