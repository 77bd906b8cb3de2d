"""The ssdeep piece hash the CTPH oracle is built on, against its definition."""

from repro.hashing.fnv import FNV32_PRIME, SSDEEP_HASH_INIT

from oracles.ctph import sum_hash, sum_hash_bytes


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
