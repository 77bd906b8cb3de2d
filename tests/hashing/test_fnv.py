"""Tests for the FNV hashes and the ssdeep piece hash."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import repro.hashing.fnv as fnv_module
from repro.hashing.fnv import (
    FNV32_PRIME,
    SSDEEP_HASH_INIT,
    fnv1_32,
    fnv1a_32,
    fnv1a_32_many,
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
        """Both widths share one unrolled loop; the byte loop is the definition
        (and what routed every datagram and silver row stored so far)."""
        def reference(prime: int, mask: int) -> int:
            state = offset & mask
            for byte in data:
                state = ((state ^ byte) * prime) & mask
            return state

        assert fnv1a_32(data, offset) == reference(FNV32_PRIME, 0xFFFFFFFF)
        assert fnv1a_64(data, offset) == reference(0x00000100000001B3,
                                                   0xFFFFFFFFFFFFFFFF)


class TestFNVMany:
    """``fnv1a_32_many`` is ``fnv1a_32`` per key, whichever route a batch takes."""

    CROSSOVER = fnv_module._KERNEL_MIN_KEYS

    @given(st.lists(st.binary(max_size=200), max_size=3 * CROSSOVER),
           st.sampled_from([fnv_module.FNV32_OFFSET, 0, 2 ** 40 + 12345]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_hash_per_key(self, keys, offset):
        assert fnv1a_32_many(keys, offset) == [fnv1a_32(key, offset) for key in keys]

    @pytest.mark.parametrize("keys", [
        [], [b""], [b"one key"], [b""] * (CROSSOVER + 1),
        [bytes([index]) * 68 for index in range(CROSSOVER - 1)],   # scalar side
        [bytes([index]) * 68 for index in range(CROSSOVER)],       # kernel side
        [bytes([index % 251]) * (index % 201) for index in range(4 * CROSSOVER)],
    ], ids=["empty-list", "empty-key", "one-key", "all-empty", "below-crossover",
            "at-crossover", "lengths-0-200"])
    def test_edge_batches(self, keys):
        assert fnv1a_32_many(keys) == list(map(fnv1a_32, keys))

    def test_a_batch_longer_than_one_matrix_is_chunked(self, monkeypatch):
        """The working set is bounded by cells, not by the batch: the same
        answers through many small matrices, including one key per matrix."""
        keys = [b"%d\x1f" % index * (index % 7) for index in range(300)]
        expected = list(map(fnv1a_32, keys))
        for cells in (1, 40, 41, 1000, fnv_module._KERNEL_CELLS):
            monkeypatch.setattr(fnv_module, "_KERNEL_CELLS", cells)
            assert fnv1a_32_many(keys) == expected

    def test_without_numpy_every_batch_takes_the_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(fnv_module, "_np", None)
        keys = [b"key-%d" % index for index in range(2 * self.CROSSOVER)]
        assert fnv1a_32_many(keys) == list(map(fnv1a_32, keys))
