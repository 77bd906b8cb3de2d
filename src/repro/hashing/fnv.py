"""Fowler-Noll-Vo (FNV) hashes.

ssdeep hashes every *piece* of the input (the bytes between two trigger
points) with a 32-bit FNV-style hash seeded with ``0x28021967`` and the FNV
prime ``0x01000193``; only the low six bits of the final value are kept and
mapped to a base64 character.  We expose that piecewise "sum hash" plus the
standard FNV-1/FNV-1a variants.
"""

from __future__ import annotations

from typing import Iterable

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Seed used by spamsum/ssdeep for piece hashes ("HASH_INIT").
SSDEEP_HASH_INIT = 0x28021967
#: 32-bit FNV prime ("HASH_PRIME" in ssdeep).
FNV32_PRIME = 0x01000193
FNV32_OFFSET = 0x811C9DC5
FNV64_PRIME = 0x00000100000001B3
FNV64_OFFSET = 0xCBF29CE484222325


def sum_hash(byte: int, state: int) -> int:
    """One step of ssdeep's piece hash: ``(state * prime) ^ byte`` in 32 bits."""
    return ((state * FNV32_PRIME) & _MASK32) ^ byte


def sum_hash_bytes(data: Iterable[int], state: int = SSDEEP_HASH_INIT) -> int:
    """Apply :func:`sum_hash` over an iterable of bytes."""
    for byte in data:
        state = sum_hash(byte, state)
    return state


def fnv1_32(data: bytes, offset: int = FNV32_OFFSET) -> int:
    """Classic FNV-1 32-bit hash (multiply then xor)."""
    state = offset & _MASK32
    for byte in data:
        state = ((state * FNV32_PRIME) & _MASK32) ^ byte
    return state


def _fnv1a(data: bytes, state: int, prime: int, mask: int) -> int:
    """FNV-1a (xor then multiply) with the mask deferred across a 4-byte unroll.

    Xor with a byte only touches the low 8 bits and multiplication commutes
    with reduction mod ``2**k``, so masking once per four bytes is exact.
    """
    stop = len(data) & ~3
    for b0, b1, b2, b3 in zip(data[0:stop:4], data[1:stop:4],
                              data[2:stop:4], data[3:stop:4]):
        state = ((((state ^ b0) * prime ^ b1) * prime ^ b2) * prime ^ b3) * prime & mask
    for byte in data[stop:]:
        state = ((state ^ byte) * prime) & mask
    return state


def fnv1a_32(data: bytes, offset: int = FNV32_OFFSET) -> int:
    """FNV-1a 32-bit hash (xor, then multiply by the FNV-32 prime)."""
    return _fnv1a(data, offset & _MASK32, FNV32_PRIME, _MASK32)


def fnv1a_64(data: bytes, offset: int = FNV64_OFFSET) -> int:
    """FNV-1a 64-bit hash (xor, then multiply by the FNV-64 prime)."""
    return _fnv1a(data, offset & _MASK64, FNV64_PRIME, _MASK64)
