"""Tests for the xxHash implementations (spec test vectors included)."""

import pytest

from repro.hashing.xxhash import xxh64, xxh128_hex


class TestXXH64Vectors:
    @pytest.mark.parametrize(
        "data, seed, expected",
        [
            (b"", 0, 0xEF46DB3751D8E999),
            (b"a", 0, 0xD24EC4F1A98C6E5B),
            (b"abc", 0, 0x44BC2CF5AD770999),
            (b"Nobody inspects the spammish repetition", 0, 0xFBCEA83C8A378BF1),
        ],
    )
    def test_reference_vectors(self, data, seed, expected):
        assert xxh64(data, seed) == expected

    def test_seed_changes_result(self):
        assert xxh64(b"payload", 0) != xxh64(b"payload", 1)

    def test_long_input_all_paths(self):
        """Inputs >= 32 bytes exercise the accumulator loop plus every tail branch."""
        base = bytes(range(256))
        digests = {xxh64(base[:length]) for length in (32, 33, 36, 40, 41, 63, 64, 200)}
        assert len(digests) == 8


class TestXXH128Composite:
    def test_width_and_hex(self):
        digest = xxh128_hex("/usr/bin/bash")
        assert len(digest) == 32
        int(digest, 16)  # parses as hex

    def test_accepts_str_and_bytes(self):
        assert xxh128_hex("/usr/bin/bash") == xxh128_hex(b"/usr/bin/bash")

    def test_distinguishes_paths(self):
        assert xxh128_hex("/usr/bin/bash") != xxh128_hex("/usr/bin/dash")

    def test_seed_sensitivity(self):
        assert xxh128_hex("/usr/bin/bash", seed=1) != xxh128_hex("/usr/bin/bash", seed=2)
