"""Printable-string extraction (the ``strings(1)`` equivalent).

SIREN fuzzy-hashes "the printable strings found in the file (similar to the
output of the strings command)".  :func:`strings_blob` reproduces the
classic behaviour: runs of at least ``min_length`` printable ASCII characters,
terminated by any non-printable byte, one per line.

The scan is whole-array: a printable lookup table, run edges from a
``diff``, the short runs dropped, and every kept run gathered together with
the byte after it, which is overwritten by the ``\\n`` that separates it
from the next.  String extraction feeds every ``STRINGS_H`` digest, so it
sits on the collector's hot path next to the hashing engine.
"""

from __future__ import annotations

import numpy as np

#: Bytes considered printable by ``strings``: ASCII 0x20-0x7E plus tab.
_PRINTABLE_LUT = np.zeros(256, dtype=bool)
_PRINTABLE_LUT[0x20:0x7F] = True
_PRINTABLE_LUT[0x09] = True


def strings_blob(data: bytes, min_length: int = 4) -> str:
    """The printable runs of ``data``, one per line (the payload SIREN hashes)."""
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    raw = np.frombuffer(data, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(_PRINTABLE_LUT[raw], prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    long_enough = stops - starts >= min_length
    starts, stops = starts[long_enough], stops[long_enough]
    if not len(starts):
        return ""
    # Each run is gathered with the byte after it (non-printable, so free to
    # overwrite with the separator); the last run's separator is left out.
    lengths = stops - starts + 1
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)[:-1]
    index += np.arange(len(index))
    out = raw.copy()
    out[stops[:-1]] = ord("\n")
    return out[index].tobytes().decode("ascii")


