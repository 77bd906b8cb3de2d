"""Pure-Python xxHash (XXH64) plus a 128-bit composite.

SIREN hashes the path to the executable with ``XXH3_128bits`` from the xxHash
library; the result is *not* analysed for similarity -- it only disambiguates
rows when a process image is replaced via ``exec()`` while keeping the same
PID and timestamp.  Any deterministic, fast, well-distributed hash fills that
role, so this module provides a spec-faithful XXH64 implementation and
:func:`xxh128_hex`, a 128-bit value built from two independently seeded
XXH64 lanes in place of XXH3.

Reference: https://github.com/Cyan4973/xxHash (algorithm specification).
"""

from __future__ import annotations

import struct

_MASK64 = 0xFFFFFFFFFFFFFFFF

# --- XXH64 constants -------------------------------------------------------
_P64_1 = 11400714785074694791
_P64_2 = 14029467366897019727
_P64_3 = 1609587929392839161
_P64_4 = 9650029242287828579
_P64_5 = 2870177450012600261


def _rotl64(value: int, count: int) -> int:
    return ((value << count) | (value >> (64 - count))) & _MASK64


# ---------------------------------------------------------------------------
# XXH64
# ---------------------------------------------------------------------------
def _xxh64_round(acc: int, lane: int) -> int:
    acc = (acc + lane * _P64_2) & _MASK64
    acc = _rotl64(acc, 31)
    return (acc * _P64_1) & _MASK64


def _xxh64_merge_round(acc: int, val: int) -> int:
    val = _xxh64_round(0, val)
    acc ^= val
    return (acc * _P64_1 + _P64_4) & _MASK64


def xxh64(data: bytes, seed: int = 0) -> int:
    """64-bit xxHash of ``data`` with the given seed."""
    data = bytes(data)
    length = len(data)
    seed &= _MASK64
    index = 0

    if length >= 32:
        v1 = (seed + _P64_1 + _P64_2) & _MASK64
        v2 = (seed + _P64_2) & _MASK64
        v3 = seed
        v4 = (seed - _P64_1) & _MASK64
        limit = length - 32
        while index <= limit:
            lanes = struct.unpack_from("<4Q", data, index)
            v1 = _xxh64_round(v1, lanes[0])
            v2 = _xxh64_round(v2, lanes[1])
            v3 = _xxh64_round(v3, lanes[2])
            v4 = _xxh64_round(v4, lanes[3])
            index += 32
        acc = (_rotl64(v1, 1) + _rotl64(v2, 7) + _rotl64(v3, 12) + _rotl64(v4, 18)) & _MASK64
        acc = _xxh64_merge_round(acc, v1)
        acc = _xxh64_merge_round(acc, v2)
        acc = _xxh64_merge_round(acc, v3)
        acc = _xxh64_merge_round(acc, v4)
    else:
        acc = (seed + _P64_5) & _MASK64

    acc = (acc + length) & _MASK64

    while index + 8 <= length:
        (lane,) = struct.unpack_from("<Q", data, index)
        acc ^= _xxh64_round(0, lane)
        acc = (_rotl64(acc, 27) * _P64_1 + _P64_4) & _MASK64
        index += 8
    if index + 4 <= length:
        (lane,) = struct.unpack_from("<I", data, index)
        acc ^= (lane * _P64_1) & _MASK64
        acc = (_rotl64(acc, 23) * _P64_2 + _P64_3) & _MASK64
        index += 4
    while index < length:
        acc ^= (data[index] * _P64_5) & _MASK64
        acc = (_rotl64(acc, 11) * _P64_1) & _MASK64
        index += 1

    acc ^= acc >> 33
    acc = (acc * _P64_2) & _MASK64
    acc ^= acc >> 29
    acc = (acc * _P64_3) & _MASK64
    acc ^= acc >> 32
    return acc


def xxh128_hex(data: bytes | str, seed: int = 0) -> str:
    """128-bit hex digest built from two independently seeded XXH64 lanes.

    This stands in for ``XXH3_128bits`` (see the module docstring): SIREN only uses the
    value as an opaque identifier of the executable *path*, so collision
    resistance at the 2^-64 level per lane is more than sufficient.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    low = xxh64(data, seed)
    high = xxh64(data, (seed ^ _P64_1) & _MASK64)
    return f"{high:016x}{low:016x}"
