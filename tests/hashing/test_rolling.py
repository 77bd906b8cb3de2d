"""Tests for the CTPH rolling hash."""

from repro.hashing.rolling import ROLLING_WINDOW

from oracles.ctph import RollingHash, roll_sequence


class TestRollingHash:
    def test_initial_value_zero(self):
        assert RollingHash().value == 0

    def test_update_returns_value(self):
        roller = RollingHash()
        assert roller.update(65) == roller.value

    def test_deterministic(self):
        data = b"the quick brown fox jumps over the lazy dog"
        assert roll_sequence(data) == roll_sequence(data)

    def test_locality_window(self):
        """The hash after position i depends only on the last 7 bytes."""
        prefix_a = b"A" * 50
        prefix_b = b"B" * 50
        tail = b"0123456789ABCDEF"
        seq_a = roll_sequence(prefix_a + tail)
        seq_b = roll_sequence(prefix_b + tail)
        # After consuming ROLLING_WINDOW bytes of the identical tail, the
        # values must coincide regardless of the differing prefixes.
        offset = 50 + ROLLING_WINDOW - 1
        assert seq_a[offset + 1:] == seq_b[offset + 1:]

    def test_differs_for_different_last_byte(self):
        assert roll_sequence(b"abcdefg")[-1] != roll_sequence(b"abcdefh")[-1]

    def test_reset_restores_initial_state(self):
        roller = RollingHash()
        for byte in b"some data":
            roller.update(byte)
        roller.reset()
        assert roller.value == 0
        assert roller.count == 0

    def test_count_tracks_bytes(self):
        roller = RollingHash()
        for byte in b"12345":
            roller.update(byte)
        assert roller.count == 5

    def test_values_are_32_bit(self):
        assert all(0 <= value < 2 ** 32 for value in roll_sequence(bytes(range(256)) * 4))
