"""Fowler-Noll-Vo (FNV) hashes.

ssdeep hashes every *piece* of the input (the bytes between two trigger
points) with a 32-bit FNV-style hash seeded with ``0x28021967`` and the FNV
prime ``0x01000193``; only the low six bits of the final value are kept and
mapped to a base64 character.  We expose that piecewise "sum hash" plus the
standard FNV-1/FNV-1a variants, which other subsystems use as cheap content
digests (e.g. synthetic inode numbers in the virtual filesystem).
"""

from __future__ import annotations

from typing import Iterable, Sequence

try:  # optional accelerator -- the batch hash is exact either way
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

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
    """FNV-1a 32-bit hash: the shard routing of datagrams and silver rows."""
    return _fnv1a(data, offset & _MASK32, FNV32_PRIME, _MASK32)


#: Batch length from which :func:`fnv1a_32_many` runs the column kernel: its
#: fixed cost (two array operations per byte column) is what the scalar loop
#: pays for about sixteen 68-byte keys on the box both were measured on.
_KERNEL_MIN_KEYS = 16
#: Cells (keys x longest key) of one kernel matrix, however long the batch is.
_KERNEL_CELLS = 1 << 18


def fnv1a_32_many(keys: Sequence[bytes], offset: int = FNV32_OFFSET) -> list[int]:
    """``[fnv1a_32(key, offset) for key in keys]``, by byte column for a batch.

    The keys are padded into a ``uint8`` matrix and every key's state is
    advanced one byte column at a time on a ``uint32`` vector (whose
    wrap-around is the 32-bit mask); a key's hash is its state after as many
    columns as it has bytes, so the padding never reaches an answer.
    """
    if _np is None or len(keys) < _KERNEL_MIN_KEYS:
        return [fnv1a_32(key, offset) for key in keys]
    offset &= _MASK32
    width = max(map(len, keys))
    rows = max(1, _KERNEL_CELLS // max(1, width))
    prime = _np.uint32(FNV32_PRIME)
    hashes: list[int] = []
    for start in range(0, len(keys), rows):
        chunk = keys[start:start + rows]
        lengths = _np.fromiter(map(len, chunk), dtype=_np.intp, count=len(chunk))
        ends = set(lengths.tolist())
        columns = _np.frombuffer(
            b"".join([key.ljust(width, b"\0") for key in chunk]),
            dtype=_np.uint8).reshape(len(chunk), width).T
        state = _np.full(len(chunk), offset, dtype=_np.uint32)
        done = _np.full(len(chunk), offset, dtype=_np.uint32)  # the empty keys
        for consumed, column in enumerate(columns, 1):
            _np.bitwise_xor(state, column, out=state)
            _np.multiply(state, prime, out=state)
            if consumed in ends:
                ended = lengths == consumed
                done[ended] = state[ended]
        hashes += done.tolist()
    return hashes


def fnv1a_64(data: bytes, offset: int = FNV64_OFFSET) -> int:
    """FNV-1a 64-bit hash: the tiered store's persisted blob and column
    digest, so it runs over whole object lists and memory maps."""
    return _fnv1a(data, offset & _MASK64, FNV64_PRIME, _MASK64)
