"""The per-byte CTPH reference: the oracle the one-shot engine is pinned to.

:func:`repro.hashing.engine.fuzzy_digest` scans a payload once, decides the
block size from trigger counts and hashes both signatures' pieces in one
vectorised pass.  This is the algorithm as spamsum states it: one
:class:`RollingHash` and one
:func:`sum_hash` per signature per byte, and a full rescan
at half the block size whenever the primary signature comes out shorter
than half the budget.  It shares no scan, decision or piece-hash code with
the engine, which is what makes it an oracle.
"""

from __future__ import annotations

from repro.hashing.engine import B64_ALPHABET
from repro.hashing.fnv import FNV32_PRIME, SSDEEP_HASH_INIT
from repro.hashing.rolling import ROLLING_WINDOW
from repro.hashing.ssdeep import MIN_BLOCKSIZE, SPAMSUM_LENGTH

_MASK32 = 0xFFFFFFFF


def sum_hash(byte: int, state: int) -> int:
    """One step of ssdeep's piece hash: ``(state * prime) ^ byte`` in 32 bits."""
    return ((state * FNV32_PRIME) & _MASK32) ^ byte


def sum_hash_bytes(data: bytes, state: int = SSDEEP_HASH_INIT) -> int:
    """:func:`sum_hash` over every byte of ``data``."""
    for byte in data:
        state = sum_hash(byte, state)
    return state


class RollingHash:
    """Stateful 7-byte rolling hash (spamsum ``roll_hash``): three components
    ``h1`` (sum of window bytes), ``h2`` (position-weighted sum) and ``h3``
    (shift/xor mixer), combined by addition, all in 32-bit arithmetic."""

    __slots__ = ("_window", "_h1", "_h2", "_h3", "_count")

    def __init__(self) -> None:
        self._window = [0] * ROLLING_WINDOW
        self._h1 = 0
        self._h2 = 0
        self._h3 = 0
        self._count = 0

    def reset(self) -> None:
        """Clear all state, as if freshly constructed."""
        for index in range(ROLLING_WINDOW):
            self._window[index] = 0
        self._h1 = self._h2 = self._h3 = 0
        self._count = 0

    def update(self, byte: int) -> int:
        """Feed one byte (0-255) and return the new rolling hash value."""
        slot = self._count % ROLLING_WINDOW
        self._h2 = (self._h2 - self._h1 + ROLLING_WINDOW * byte) & _MASK32
        self._h1 = (self._h1 + byte - self._window[slot]) & _MASK32
        self._window[slot] = byte
        self._count += 1
        self._h3 = ((self._h3 << 5) & _MASK32) ^ byte
        return (self._h1 + self._h2 + self._h3) & _MASK32

    @property
    def value(self) -> int:
        """Current hash value without feeding a new byte."""
        return (self._h1 + self._h2 + self._h3) & _MASK32

    @property
    def count(self) -> int:
        """Number of bytes consumed since the last reset."""
        return self._count


def roll_sequence(data: bytes) -> list[int]:
    """The rolling-hash value after each byte of ``data``: the value after
    position ``i`` depends only on ``data[max(0, i-6):i+1]``."""
    roller = RollingHash()
    return [roller.update(byte) for byte in data]


class ReferenceHasher:
    """The seed implementation of ``FuzzyHasher.hash``: per-byte, rescan-on-halve."""

    def __init__(self, min_block_size: int = MIN_BLOCKSIZE,
                 signature_length: int = SPAMSUM_LENGTH) -> None:
        self.min_block_size = min_block_size
        self.signature_length = signature_length

    def initial_block_size(self, length: int) -> int:
        """Smallest block size whose expected signature fits in the budget."""
        block_size = self.min_block_size
        while block_size * self.signature_length < length:
            block_size *= 2
        return block_size

    def hash(self, data: bytes) -> str:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("FuzzyHasher.hash expects bytes-like input")
        data = bytes(data)
        block_size = self.initial_block_size(len(data))
        while True:
            sig1, sig2 = self._hash_at(data, block_size)
            # If the primary signature is too short the block size was too
            # coarse (e.g. highly repetitive input); retry at half the size.
            if block_size > self.min_block_size and len(sig1) < self.signature_length // 2:
                block_size //= 2
            else:
                return f"{block_size}:{sig1}:{sig2}"

    def _hash_at(self, data: bytes, block_size: int) -> tuple[str, str]:
        """Single pass producing the signatures at ``block_size`` and double it."""
        roller = RollingHash()
        piece1 = SSDEEP_HASH_INIT
        piece2 = SSDEEP_HASH_INIT
        sig1: list[str] = []
        sig2: list[str] = []
        double_block = block_size * 2
        sig_len = self.signature_length

        for byte in data:
            piece1 = sum_hash(byte, piece1)
            piece2 = sum_hash(byte, piece2)
            rolling = roller.update(byte)
            if rolling % block_size == block_size - 1:
                if len(sig1) < sig_len - 1:
                    sig1.append(B64_ALPHABET[piece1 % 64])
                    piece1 = SSDEEP_HASH_INIT
            if rolling % double_block == double_block - 1:
                if len(sig2) < sig_len // 2 - 1:
                    sig2.append(B64_ALPHABET[piece2 % 64])
                    piece2 = SSDEEP_HASH_INIT
        if roller.value != 0 or data:
            # Capture the trailing partial piece (always, even if empty data
            # produced no trigger at all but bytes were consumed).
            if data:
                sig1.append(B64_ALPHABET[piece1 % 64])
                sig2.append(B64_ALPHABET[piece2 % 64])
        return "".join(sig1), "".join(sig2)
