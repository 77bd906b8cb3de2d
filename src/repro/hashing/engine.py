"""One-shot CTPH engine: one scan of a batch, one block-size decision per payload.

Fuzzy-hashing an executable is the cold start of every freshly built binary,
so this module computes ssdeep-style digests with as little per-call and
per-byte work as it can, while producing **byte-identical digests** to the
per-byte reference algorithm (pinned by the golden tests in
``tests/hashing/test_engine.py`` against the oracle in
``tests/oracles/ctph.py``).

Design
------
The spamsum rolling hash is a *pure function of the last 7 input bytes*
(``h1`` is the window sum, ``h2`` the position-weighted window sum, and the
shift/xor mixer ``h3`` pushes every byte out of 32-bit range after seven
steps).  Three consequences drive the design:

1. *One trigger scan serves every block size.*  A piece boundary at block
   size ``b`` occurs when ``rolling % b == b - 1``, i.e. when ``b`` divides
   ``q = rolling + 1``.  Candidate block sizes are ``min_bs * 2**k``, so one
   pass that records, per position, how far up that ladder ``q`` is
   divisible yields the trigger stream of *all* candidate block sizes.
2. *The block size is decided once, at digest time.*  The digest scans the
   whole payload, reads the trigger count of a level only when the
   reference decision loop asks for it (halve while the primary signature
   would come out shorter than ``signature_length // 2``), and takes
   positions for the two levels it chose, never for the others.
3. *The scan is chunk-parallel.*  A slice of the payload can be scanned
   given just the 6 bytes before it, so long payloads are walked in
   ``_SCAN_SLICE`` slices and temporaries stay bounded.
4. *A batch is one stream.*  Payloads joined, each after the 6 zero bytes
   the reference's window starts with, roll exactly as they roll alone, so
   the digests a process start needs share one scan and one piece-hash
   pass: the fixed cost of the numpy calls is paid once per batch.

The scan builds ``h3`` by doubling (three shift-xors), adds ``h1 + h2`` in
place, and tests divisibility by the odd part of ``min_bs`` by multiplying
with its inverse mod ``2**32``, which also yields the exact quotient whose
trailing zero bits are the trigger level.

*The piece hash is a 6-bit state machine.*  A signature character is the
piece hash mod 64, and ``(h * P) ^ byte`` mod 64 needs only ``h`` mod 64.
``P`` is odd, so bit *i* of the next state is bit *i* of the current one, xor
bit *i* of the byte, xor a function of the state bits *below* i: the six bits
are solved lowest first, each as a prefix parity over the whole payload that
restarts at the piece boundaries (:func:`_hash_slice_numpy`).  Both
signatures of every payload of a batch go through one kernel call, as two
stacked rows over the stream.  Short batches (under ``_KERNEL_MIN_BYTES`` in
all) take the scalar :func:`_piece_hashes` loop instead, one lookup in a
64 x 256 transition table per byte.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice
from typing import Callable, Sequence

import numpy as np

from repro.hashing.fnv import FNV32_PRIME, SSDEEP_HASH_INIT
from repro.hashing.rolling import ROLLING_WINDOW

#: Base64 alphabet used for signature characters (standard alphabet, as ssdeep).
B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

#: Upper bound on bytes scanned per vectorised slice (bounds temporaries).
_SCAN_SLICE = 1 << 22

_MASK32 = 0xFFFFFFFF


def fuzzy_digests(payloads: Sequence[bytes], min_block_size: int,
                  signature_length: int) -> list[tuple[int, str, str]]:
    """``(block_size, sig1, sig2)`` of each payload: one scan, one piece-hash pass.

    The batch is digested as one stream: every payload follows the
    ``ROLLING_WINDOW - 1`` zero bytes the reference's rolling window starts
    with, so each position rolls exactly the bytes it rolls when its payload
    is hashed alone.  One trigger scan covers the stream, each payload's
    block size is decided from its own window of the keys, and every
    payload's two signatures are the two rows of one piece-hash pass: a row
    ends a piece on the last zero byte before each payload (that piece is
    dropped) and on the payload's last byte (its final piece).

    :class:`~repro.hashing.ssdeep.FuzzyHasher` passes ssdeep's geometry
    (:data:`~repro.hashing.ssdeep.MIN_BLOCKSIZE`,
    :data:`~repro.hashing.ssdeep.SPAMSUM_LENGTH`); the parameters stay so the
    tests can sweep other geometries against the per-byte oracle.
    """
    if not any(payloads):
        return [(min_block_size, "", "")] * len(payloads)
    pad = bytes(ROLLING_WINDOW - 1)
    stream = b"".join(chain.from_iterable((pad, data) for data in payloads))
    keys, at_level = _trigger_keys(stream, min_block_size)
    half = signature_length // 2
    caps = (signature_length - 1, half - 1)
    rows: tuple[list[int], list[int]] = ([], [])
    plans: list[tuple[int, list[tuple[int, bool]]] | None] = []
    start = len(pad)                       # the payload's first stream offset
    for data in payloads:
        length = len(data)
        if not length:
            plans.append(None)
        else:
            window = keys[start - len(pad):start - len(pad) + length]
            # Smallest block size whose expected signature fits the budget,
            # then halve while the primary signature would come out too
            # short.  A level's signature is min(count, sl - 1) characters
            # plus the final piece.
            level = 0
            block_size = min_block_size
            while block_size * signature_length < length:
                block_size *= 2
                level += 1
            while level > 0 and \
                    min(int(np.count_nonzero(at_level(window, level))), caps[0]) + 1 < half:
                level -= 1
                block_size //= 2
            last = start + length - 1
            closes = []
            for row, row_level, cap in zip(rows, (level, level + 1), caps):
                ends = (np.flatnonzero(at_level(window, row_level))[:cap] + start).tolist()
                # An end on the last byte leaves an empty final piece, whose
                # hash is the initial state.
                final = not ends or ends[-1] != last
                row.append(start - 1)
                row.extend(ends)
                if final:
                    row.append(last)
                closes.append((len(ends), final))
            plans.append((block_size, closes))
        start += length + len(pad)
    if sum(map(len, payloads)) >= _KERNEL_MIN_BYTES:
        hashes = _piece_hashes_numpy(stream, rows)
    else:
        hashes = [_piece_hashes(stream, ends) for ends in rows]
    pieces = [iter(row) for row in hashes]
    digests: list[tuple[int, str, str]] = []
    for plan in plans:
        if plan is None:
            digests.append((min_block_size, "", ""))
            continue
        block_size, closes = plan
        sigs = []
        for piece, (count, final) in zip(pieces, closes):
            next(piece)                    # the zero bytes before the payload
            chars = list(islice(piece, count + final))
            if not final:
                chars.append(_INIT6)
            sigs.append("".join([B64_ALPHABET[h] for h in chars]))
        digests.append((block_size, *sigs))
    return digests


# ---------------------------------------------------------------------- #
# trigger scan
# ---------------------------------------------------------------------- #
def _trigger_keys(stream: bytes, min_bs: int) -> tuple[np.ndarray, Callable[[np.ndarray, int], np.ndarray]]:
    """Trigger keys of ``stream`` past its first ``ROLLING_WINDOW - 1`` bytes,
    and ``at_level(keys, level)``, true where a position triggers at ``level``.

    A trigger at level ``k`` is a piece boundary at block size
    ``min_bs * 2**k``.  ``keys[i]`` belongs to stream position
    ``i + ROLLING_WINDOW - 1``; the stream is scanned once, in slices of at
    most ``_SCAN_SLICE`` positions, and the level queries are answered from
    the keys.

    ``min_bs = odd * 2**s``.  A slice's key array holds, per position, a
    value that is at least ``2**(base + k) - 1`` iff the position triggers at
    level ``k`` (see :func:`_scan_slice_numpy`); with more than one slice the
    keys are reduced to that exponent, one byte per position.
    """
    odd, base = min_bs, 0
    while not odd & 1:
        odd >>= 1
        base += 1
    if odd > 1:
        base += 1
    view = memoryview(stream)
    size = len(stream) - (ROLLING_WINDOW - 1)
    stride = _SCAN_SLICE
    if size <= stride:
        keys = _scan_slice_numpy(view, odd)
    else:
        keys = np.empty(size, dtype=np.uint8)
        for start in range(0, size, stride):
            key = _scan_slice_numpy(view[start:start + ROLLING_WINDOW - 1 + stride], odd)
            np.bitwise_count(key, out=keys[start:start + len(key)])

    def at_level(window, level: int):
        exponent = base + level
        return window >= (exponent if window.dtype == np.uint8 else (1 << exponent) - 1)

    return keys, at_level


def _scan_slice_numpy(buf: bytes, odd: int):
    """Trigger keys of one slice: ``buf`` is 6 context bytes + the payload.

    With ``q = rolling + 1`` (mod ``2**32``, so ``q == 0`` encodes
    ``2**32``) and ``v`` the number of trailing zero bits of ``q``:

    * ``odd == 1``: the key is ``2**v - 1``, computed as ``rolling & ~q``.
    * ``odd > 1``: ``m = q * odd**-1 mod 2**32`` is the exact quotient
      ``q / odd`` iff ``1 <= m <= (2**32 - 1) // odd`` (and no ``q`` that
      ``odd`` does not divide lands in that range); it has the same ``v``.
      The key is ``m ^ (m - 1) == 2**(v + 1) - 1`` for those positions and
      0 for all others.
    """
    c8 = np.frombuffer(buf, dtype=np.uint8)
    size = len(c8) - (ROLLING_WINDOW - 1)
    # h3 by doubling: b[t] ^ b[t-1] << 5 ^ ... ^ b[t-6] << 30 (b[t-7] << 35
    # leaves 32 bits), in three shift-xors over the whole buffer.
    h3 = c8.astype(np.uint32)
    scratch = np.empty_like(h3)
    for step, shift in ((1, 5), (2, 10), (4, 20)):
        shifted = scratch[:len(h3) - step]
        np.left_shift(h3[:len(h3) - step], shift, out=shifted)
        h3[step:] ^= shifted
    # h1 + h2: byte b[t-k] carries weight 1 + (7 - k); at most 35 * 255.
    h12 = np.multiply(c8[6:], 8, dtype=np.uint16)
    term = np.empty(size, dtype=np.uint16)
    for k in range(1, ROLLING_WINDOW):
        np.multiply(c8[6 - k:len(c8) - k], 8 - k, out=term, dtype=np.uint16)
        h12 += term
    rolling = h3[6:]
    rolling += h12                         # uint32 wrap-around == mod 2**32
    key = scratch[:size]
    if odd == 1:
        np.add(rolling, 1, out=key)
        np.invert(key, out=key)
        key &= rolling
        return key
    rolling += 1                           # q
    rolling *= pow(odd, -1, 1 << 32)       # m
    np.subtract(rolling, 1, out=key)
    divisible = key < _MASK32 // odd
    key ^= rolling
    key *= divisible
    return key


# ---------------------------------------------------------------------- #
# piece hashing (once per batch, for each payload's two selected signatures)
# ---------------------------------------------------------------------- #
#: A signature character keeps only the low six bits of the piece hash, and
#: ``(h * P) ^ byte`` taken mod 64 depends only on ``h``, ``P`` and ``byte``
#: mod 64: the piece hash the engine needs is a 6-bit state machine.
_STATE_BITS = 6
_INIT6 = SSDEEP_HASH_INIT & 63
_PRIME6 = FNV32_PRIME & 63

#: The 6-bit transition table, each state kept shifted left by 8 so that one
#: ``|`` with the byte forms the next index: ``T[h << 8 | byte] == next << 8``.
#: Its 16,384 entries share 64 int objects (distinct ones took 0.5 MiB).
_SHIFTED_STATES = [state << 8 for state in range(64)]
_TRANSITIONS = [_SHIFTED_STATES[(h * FNV32_PRIME ^ byte) & 63]
                for h in range(64) for byte in range(256)]

#: Batches of fewer bytes than this in all take the scalar
#: :func:`_piece_hashes` loop.  The two-row kernel makes ~190 whole-array
#: calls however short the input (~200 us); the loop costs ~27 ns per byte
#: per signature.  Whole batches measure equal at 3.0-3.5 KiB, one payload
#: or several (docs/architecture.md, "Host-measured crossovers").
_KERNEL_MIN_BYTES = 3072


def _piece_hashes(data: bytes, ends: Sequence[int]) -> list[int]:
    """6-bit hashes of the pieces ending at ``ends`` plus the final piece."""
    table = _TRANSITIONS
    hashes: list[int] = []
    start = 0
    for stop in chain([end + 1 for end in ends], [len(data)]):
        h = _INIT6 << 8
        for byte in data[start:stop]:
            h = table[h | byte]
        hashes.append(h >> 8)
        start = stop
    return hashes


def _piece_hashes_numpy(data: bytes, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """:func:`_piece_hashes` of every row of ends, in one kernel call per slice.

    Each row's pieces end at its ``ends`` (sorted stream positions,
    inclusive) and its last piece runs to the end of ``data``.  The payload
    is walked in slices of at most ``_SCAN_SLICE`` bytes so temporaries stay
    bounded like the scan's; the only carry between slices is the 6-bit
    state of each row's open piece.  An end on the last byte leaves an empty
    final piece, whose hash is the initial state -- which is exactly the
    open state after a closed piece.
    """
    view = memoryview(data)
    hashes: list[list[int]] = [[] for _ in rows]
    states = [_INIT6] * len(rows)
    taken = [0] * len(rows)
    for start in range(0, len(data), _SCAN_SLICE):
        stop = min(len(data), start + _SCAN_SLICE)
        local = []
        for index, ends in enumerate(rows):
            upto = bisect_left(ends, stop, taken[index])
            local.append([end - start for end in ends[taken[index]:upto]])
            taken[index] = upto
        closed, states = _hash_slice_numpy(view[start:stop], local, states)
        for row, row_closed in zip(hashes, closed):
            row.extend(row_closed)
    for row, state in zip(hashes, states):
        row.append(state)
    return hashes


def _hash_slice_numpy(buf, rows: list[list[int]],
                      states: list[int]) -> tuple[list[list[int]], list[int]]:
    """6-bit piece hashes of one slice, all rows stacked into one array.

    Returns, per row, the hash at each of its ends and the state of the piece
    left open.  ``states[r]`` is the hash so far of row ``r``'s piece open at
    the slice's first byte; every later piece starts from ``_INIT6``.
    ``_PRIME6`` is odd, so bit *i* of ``h * _PRIME6`` is ``h_i`` xor a
    function of the bits *below* i: consuming a byte toggles state bit i iff
    bit i of ``byte ^ (h mod 2**i) * _PRIME6`` is set.  The bits are
    therefore solved lowest first, each level a prefix parity of its toggles
    that restarts at every piece start: one global :func:`_prefix_parity`,
    then a per-piece constant (the parity just before the piece, and the
    piece's initial bit) is xor-ed back out.  A row is a whole number of
    64-bit words, so a row's first piece restarts like any other.
    """
    length = len(buf)
    # Whole 64-bit words for _prefix_parity: the zero padding lengthens each
    # row's open piece past the end of the slice and is never read back.
    size = -(-length // 64) * 64
    data = np.zeros(len(rows) * size, dtype=np.uint8)
    payload = np.frombuffer(buf, dtype=np.uint8)
    bounds: list[int] = []
    inits: list[int] = []
    for index, (ends, state) in enumerate(zip(rows, states)):
        offset = index * size
        data[offset:offset + length] = payload
        bounds.append(offset)
        inits.append(state)
        starts = [offset + end + 1 for end in ends if end + 1 < length]
        bounds.extend(starts)
        inits.extend([_INIT6] * len(starts))
    bounds.append(len(data))
    edges = np.array(bounds, dtype=np.intp)
    starts = edges[:-1]
    spans = edges[1:] - starts
    last = starts[1:] - 1                      # last byte of the piece before
    initial = np.array(inits, dtype=np.uint8)
    # The state bits solved so far, as of before / after each byte.
    before = np.zeros(len(data), dtype=np.uint8)
    after = np.zeros(len(data), dtype=np.uint8)
    toggles = np.empty(len(data), dtype=np.uint8)
    for level in range(_STATE_BITS):
        np.multiply(before, _PRIME6, out=toggles)  # uint8: wraps mod 256
        toggles ^= data
        toggles &= 1 << level
        bit = _prefix_parity(toggles)
        offset = initial >> level & 1
        offset[1:] ^= bit[last]
        bit ^= np.repeat(offset, spans)
        # A uint8 left shift is ~10x slower than this multiply (numpy 2.x).
        bit *= 1 << level
        after |= bit
        before[1:] |= bit[:-1]
        before[starts] = initial & ((2 << level) - 1)
    picks = [index * size + end for index, ends in enumerate(rows) for end in ends]
    picked = after[np.array(picks, dtype=np.intp)].tolist()
    closed: list[list[int]] = []
    opens: list[int] = []
    for index, ends in enumerate(rows):
        closed.append(picked[:len(ends)])
        picked = picked[len(ends):]
        if ends and ends[-1] == length - 1:
            opens.append(_INIT6)
        else:
            opens.append(int(after[index * size + length - 1]))
    return closed, opens


def _prefix_parity(flags):
    """Inclusive prefix parity of the nonzero entries of a ``uint8`` array.

    ``bitwise_xor.accumulate`` is one dependent step per element; packed 64
    flags to a word, six shift-xors give the prefix inside every word and the
    carry between words is an accumulate over 1/64 of the elements.  The
    length must be a multiple of 64.
    """
    words = np.packbits(flags, bitorder="little").view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    odd = words >> 63                      # parity of each whole word
    carry = np.bitwise_xor.accumulate(odd)
    carry ^= odd                           # ... of all the words before it
    words ^= carry * 0xFFFFFFFFFFFFFFFF
    return np.unpackbits(words.view(np.uint8), bitorder="little")
