"""Single-pass streaming CTPH engine.

The reference :class:`~repro.hashing.ssdeep.FuzzyHasher` implementation walks
the payload one byte at a time through two Python call boundaries per byte
(``RollingHash.update`` + ``sum_hash``) and, whenever the primary signature
turns out too short, *halves the block size and rescans the whole payload from
scratch*.  Fuzzy-hashing executables is by far the most expensive part of
collection, so this module rebuilds that hot path as a streaming, single-pass,
multi-blocksize engine -- like libfuzzy's ``fuzzy_update`` -- while producing
**byte-identical digests** (pinned by the golden tests in
``tests/hashing/test_engine.py``).

Design
------
The spamsum rolling hash is a *pure function of the last 7 input bytes*
(``h1`` is the window sum, ``h2`` the position-weighted window sum, and the
shift/xor mixer ``h3`` pushes every byte out of 32-bit range after seven
steps).  Two consequences drive the whole design:

1. *One trigger scan serves every block size.*  A piece boundary at block
   size ``b`` occurs when ``rolling % b == b - 1``, i.e. when ``b`` divides
   ``rolling + 1``.  Candidate block sizes are ``min_bs * 2**i``, so a single
   pass that records, for each position with ``min_bs | rolling + 1``, the
   2-adic level ``2**i`` of ``(rolling + 1) // min_bs`` yields the trigger
   stream of *all* candidate block sizes at once.  Per level the engine keeps
   only the total trigger count plus the first ``signature_length - 1``
   positions -- everything a signature can ever consume -- so the trigger
   bookkeeping stays a few hundred integers no matter how large the stream
   grows.  (The payload itself *is* retained, by reference, because the FNV
   piece hashes of the finally-selected block size are computed lazily at
   digest time; ``FuzzyState`` trades memory for never rescanning.)
2. *The scan is chunk-parallel.*  Because the rolling value depends only on a
   7-byte window, a chunk can be scanned given just the 6 preceding bytes:
   there is no sequential carry.  When :mod:`numpy` is importable the scan is
   vectorised (shifted adds / xors over ``uint32``, exact mod ``2**32``);
   otherwise a fused pure-Python loop runs with the rolling hash inlined into
   local variables and zero per-byte function calls.

Once the stream ends, the final block size is decided from the recorded
trigger *counts* exactly like the reference decision loop (halve while the
primary signature would come out shorter than ``signature_length // 2``), and
only then are the FNV piece hashes computed -- one pass per selected
signature over the recorded piece boundaries.

*The piece hash is a 6-bit state machine.*  A signature character is the
piece hash mod 64, and ``(h * P) ^ byte`` mod 64 needs only ``h`` mod 64.
``P`` is odd, so bit *i* of the next state is bit *i* of the current one, xor
bit *i* of the byte, xor a function of the state bits *below* i: the six bits
are solved lowest first, each as a prefix parity over the whole payload that
restarts at the piece boundaries (:func:`_hash_slice_numpy`).  All pieces of
a signature are hashed in a few dozen whole-array operations per bit.  Short
payloads (under ``_KERNEL_MIN_BYTES``) and numpy-free installs take the
scalar :func:`_fnv_piece` loop instead, which is also the oracle the kernel
is tested against; it defers the 32-bit mask across a 4-byte unroll
(multiplication and xor-with-a-byte both commute with reduction mod
``2**32``, so masking once per four bytes is exact).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Sequence

from repro.hashing.fnv import FNV32_PRIME, SSDEEP_HASH_INIT
from repro.hashing.rolling import ROLLING_WINDOW

try:  # optional accelerator -- the engine is exact either way
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Base64 alphabet used for signature characters (standard alphabet, as ssdeep).
B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

#: Upper bound on bytes scanned per vectorised slice (bounds temporaries).
_SCAN_SLICE = 1 << 22


def scan_backend() -> str:
    """Name of the active trigger-scan kernel (``"numpy"`` or ``"python"``)."""
    return "numpy" if _np is not None else "python"


class FuzzyState:
    """Streaming CTPH state: feed chunks with :meth:`update`, read the digest.

    Maintains the trigger bookkeeping of *all* candidate block sizes
    concurrently, so the digest never requires rescanning earlier input --
    the rolling scan touches every byte exactly once no matter how often the
    block size would have halved.  Input chunks are retained (by reference
    where possible) because the FNV piece hashes of the finally-selected
    block size are computed lazily at :meth:`digest` time.
    """

    __slots__ = ("min_block_size", "signature_length", "_chunks", "_length",
                 "_tail", "_counts", "_positions", "_payload_cache", "_result")

    def __init__(self, min_block_size: int = 3, signature_length: int = 64) -> None:
        if min_block_size < 1:
            raise ValueError("min_block_size must be >= 1")
        if signature_length < 8:
            raise ValueError("signature_length must be >= 8")
        self.min_block_size = min_block_size
        self.signature_length = signature_length
        self._chunks: list[bytes] = []
        self._length = 0
        self._tail = b"\x00" * ROLLING_WINDOW
        self._counts: list[int] = []        # per level: total trigger count
        self._positions: list[list[int]] = []  # per level: first sl-1 positions
        self._payload_cache: bytes | None = None
        self._result: tuple[int, str, str] | None = None

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def update(self, data: bytes | bytearray | memoryview) -> "FuzzyState":
        """Consume the next chunk of the stream; returns ``self`` for chaining."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("FuzzyState.update expects bytes-like input")
        data = bytes(data)
        if not data:
            return self
        self._payload_cache = None
        self._result = None
        if _np is not None:
            self._scan_numpy(data, self._length)
        else:
            self._scan_python(data, self._length)
        self._chunks.append(data)
        self._length += len(data)
        if len(data) >= ROLLING_WINDOW:
            self._tail = data[-ROLLING_WINDOW:]
        else:
            self._tail = (self._tail + data)[-ROLLING_WINDOW:]
        return self

    @property
    def length(self) -> int:
        """Number of bytes consumed so far."""
        return self._length

    # ------------------------------------------------------------------ #
    # digest
    # ------------------------------------------------------------------ #
    def digest_parts(self) -> tuple[int, str, str]:
        """``(block_size, sig1, sig2)`` of everything consumed so far."""
        if self._result is not None:
            return self._result
        min_bs = self.min_block_size
        sl = self.signature_length
        length = self._length
        if length == 0:
            self._result = (min_bs, "", "")
            return self._result
        # Smallest block size whose expected signature fits the budget, then
        # halve while the primary signature would come out too short -- the
        # reference decision loop, driven by recorded counts instead of
        # rescans.  A level's signature length is min(count, sl - 1) chars
        # plus the unconditional final piece.
        level = 0
        block_size = min_bs
        while block_size * sl < length:
            block_size *= 2
            level += 1
        counts = self._counts
        cap1 = sl - 1
        while level > 0:
            triggers = counts[level] if level < len(counts) else 0
            if min(triggers, cap1) + 1 >= sl // 2:
                break
            level -= 1
            block_size //= 2
        positions = self._positions
        ends1 = positions[level] if level < len(positions) else []
        ends2 = positions[level + 1] if level + 1 < len(positions) else []
        payload = self._payload()
        sig1 = _signature(payload, ends1, cap1)
        sig2 = _signature(payload, ends2, sl // 2 - 1)
        self._result = (block_size, sig1, sig2)
        return self._result

    def digest(self):
        """The digest as a :class:`~repro.hashing.ssdeep.FuzzyHash`."""
        from repro.hashing.ssdeep import FuzzyHash  # deferred: avoids a cycle

        block_size, sig1, sig2 = self.digest_parts()
        return FuzzyHash(block_size=block_size, sig1=sig1, sig2=sig2)

    def _payload(self) -> bytes:
        if self._payload_cache is None:
            chunks = self._chunks
            self._payload_cache = chunks[0] if len(chunks) == 1 else b"".join(chunks)
            # The joined copy supersedes the chunk list (keeps retained
            # memory at one payload, not two, after a streamed digest).
            self._chunks = [self._payload_cache]
        return self._payload_cache

    # ------------------------------------------------------------------ #
    # trigger scan kernels
    # ------------------------------------------------------------------ #
    def _scan_python(self, data: bytes, base: int) -> None:
        """Fused rolling-hash scan: all state in locals, no per-byte calls."""
        min_bs = self.min_block_size
        cap = self.signature_length - 1
        counts = self._counts
        positions = self._positions
        tail = self._tail
        # Rebuild the window-determined rolling components from the tail.
        h1 = h2 = h3 = 0
        for index in range(ROLLING_WINDOW):
            byte = tail[index]
            h1 += byte
            h2 += (index + 1) * byte
            h3 = (h3 << 5 & 4294967295) ^ byte
        pos = base
        # The outgoing window byte of position t is stream[t - 7]: lazily
        # chain the 7 tail bytes in front of the chunk (no payload copy).
        for byte, out in zip(data, chain(tail, data)):
            h2 = h2 - h1 + 7 * byte
            h1 = h1 + byte - out
            h3 = (h3 << 5 & 4294967295) ^ byte
            q = (h1 + h2 + h3 & 4294967295) + 1
            if not q % min_bs:
                v = q // min_bs
                level = 0
                while True:
                    if level == len(counts):
                        counts.append(0)
                        positions.append([])
                    counts[level] += 1
                    plist = positions[level]
                    if len(plist) < cap:
                        plist.append(pos)
                    if v & 1:
                        break
                    v >>= 1
                    level += 1
            pos += 1

    def _scan_numpy(self, data: bytes, base: int) -> None:
        """Vectorised trigger scan, exact mod 2**32, sliced to bound memory.

        Each slice buffer is the 6 preceding stream bytes (window context)
        plus at most ``_SCAN_SLICE`` payload bytes, so transient memory stays
        bounded regardless of chunk size.
        """
        length = len(data)
        view = memoryview(data)
        for start in range(0, length, _SCAN_SLICE):
            end = min(length, start + _SCAN_SLICE)
            if start == 0:
                context = self._tail[-(ROLLING_WINDOW - 1):]
            else:
                context = view[start - (ROLLING_WINDOW - 1):start]
            buf = b"".join((context, view[start:end]))  # one bounded allocation
            local_pos, levels = _scan_slice_numpy(buf, self.min_block_size)
            self._fold_events(local_pos + (base + start), levels)

    def _fold_events(self, pos_arr, lv_arr) -> None:
        """Accumulate vectorised (position, 2-adic level) events per level."""
        cap = self.signature_length - 1
        counts = self._counts
        positions = self._positions
        level = 0
        while pos_arr.size:
            if level == len(counts):
                counts.append(0)
                positions.append([])
            counts[level] += int(pos_arr.size)
            plist = positions[level]
            if len(plist) < cap:
                plist.extend(pos_arr[:cap - len(plist)].tolist())
            keep = lv_arr >= (1 << (level + 1))
            pos_arr = pos_arr[keep]
            lv_arr = lv_arr[keep]
            level += 1


def _scan_slice_numpy(buf, min_bs: int):
    """Trigger events of one slice: ``buf`` is 6 context bytes + the payload.

    Returns ``(positions, levels)`` where positions are 0-based within the
    payload part and levels are the 2-adic components ``2**i`` of
    ``(rolling + 1) // min_bs``.
    """
    c8 = _np.frombuffer(buf, dtype=_np.uint8)
    wide = c8.astype(_np.uint16)
    # Position t of the payload sits at c8[t+6]; window byte b[t-k] at c8[t+6-k].
    # h1 + h2 together: byte b[t-k] carries weight 1 + (7-k).
    h12 = 8 * wide[6:]
    h3 = c8[6:].astype(_np.uint32)
    for k in range(1, ROLLING_WINDOW):
        w = wide[6 - k:len(wide) - k]
        h12 += _np.uint16(8 - k) * w
        h3 ^= w.astype(_np.uint32) << _np.uint32(5 * k)
    q = h3 + h12          # uint32 wrap-around == mod 2**32
    q += _np.uint32(1)    # q == 0 encodes rolling + 1 == 2**32
    mask = (q % _np.uint32(min_bs)) == 0
    power_of_two = min_bs & (min_bs - 1) == 0
    if power_of_two:
        mask |= q == 0    # 2**32 is divisible by a power-of-two min_bs
    else:
        mask &= q != 0    # ...but by nothing else
    pos = _np.nonzero(mask)[0]
    v = q[pos].astype(_np.uint64)
    if power_of_two:
        v[v == 0] = _np.uint64(1) << _np.uint64(32)
    v //= _np.uint64(min_bs)
    levels = v & (~v + _np.uint64(1))
    return pos, levels


# ---------------------------------------------------------------------- #
# piece hashing (runs once, for the selected block size only)
# ---------------------------------------------------------------------- #
#: A signature character keeps only the low six bits of the piece hash, and
#: ``(h * P) ^ byte`` taken mod 64 depends only on ``h``, ``P`` and ``byte``
#: mod 64: the piece hash the engine needs is a 6-bit state machine.
_STATE_BITS = 6
_INIT6 = SSDEEP_HASH_INIT & 63
_PRIME6 = FNV32_PRIME & 63

#: Payloads shorter than this take the scalar :func:`_fnv_piece` loop.  The
#: kernel makes ~200 whole-array calls however short the input (~150 us, then
#: ~6 ns per byte); the loop costs ~75 ns per byte plus ~1 us per piece.  They
#: measure equal at 1.25 KiB for 63 pieces and at 1.9 KiB for 8; from here up
#: the kernel is no slower for any signature of 16 pieces or more, and the
#: collector's list hashes (a few hundred bytes) stay on the loop.
_KERNEL_MIN_BYTES = 1792


def _signature(data: bytes, ends: Sequence[int], cap: int) -> str:
    """Signature characters for pieces ending at ``ends`` (capped) plus tail."""
    ends = ends[:cap]
    if _np is not None and len(data) >= _KERNEL_MIN_BYTES:
        return "".join([B64_ALPHABET[h] for h in _piece_hashes_numpy(data, ends)])
    chars: list[str] = []
    start = 0
    for end in ends:
        chars.append(B64_ALPHABET[_fnv_piece(data, start, end + 1) & 63])
        start = end + 1
    chars.append(B64_ALPHABET[_fnv_piece(data, start, len(data)) & 63])
    return "".join(chars)


def _fnv_piece(data: bytes, start: int, end: int) -> int:
    """ssdeep's piece hash over ``data[start:end]``.

    Multiplication and xor-with-a-byte both commute with reduction mod
    ``2**32`` (the xor only touches the low 8 bits), so the 32-bit mask is
    applied once per 4-byte unroll instead of per byte -- exact, and measurably
    faster than the per-byte reference loop.
    """
    h = SSDEEP_HASH_INIT
    prime = FNV32_PRIME
    stop = start + ((end - start) & ~3)
    for b0, b1, b2, b3 in zip(data[start:stop:4], data[start + 1:stop:4],
                              data[start + 2:stop:4], data[start + 3:stop:4]):
        h = ((((h * prime ^ b0) * prime ^ b1) * prime ^ b2) * prime ^ b3) & 4294967295
    for byte in data[stop:end]:
        h = (h * prime & 4294967295) ^ byte
    return h


def _piece_hashes_numpy(data: bytes, ends: Sequence[int]) -> list[int]:
    """``_fnv_piece(...) & 63`` of every piece of one signature, vectorised.

    Pieces end at ``ends`` (sorted stream positions, inclusive) and the last
    one runs to the end of ``data``.  The payload is walked in slices of at
    most ``_SCAN_SLICE`` bytes so temporaries stay bounded like the scan's;
    the only carry between slices is the 6-bit state of the piece left open.
    An end on the last byte leaves an empty final piece, whose hash is the
    initial state -- which is exactly the open state after a closed piece.
    """
    view = memoryview(data)
    hashes: list[int] = []
    state = _INIT6
    taken = 0
    for start in range(0, len(data), _SCAN_SLICE):
        stop = min(len(data), start + _SCAN_SLICE)
        upto = bisect_left(ends, stop, taken)
        closed, state = _hash_slice_numpy(
            view[start:stop], [end - start for end in ends[taken:upto]], state)
        hashes.extend(closed)
        taken = upto
    hashes.append(state)
    return hashes


def _hash_slice_numpy(buf, ends: list[int], state: int) -> tuple[list[int], int]:
    """6-bit piece hashes of one slice: ``(hash at each end, open state)``.

    ``state`` is the hash so far of the piece open at the slice's first byte;
    every later piece starts from ``_INIT6``.  ``_PRIME6`` is odd, so bit *i*
    of ``h * _PRIME6`` is ``h_i`` xor a function of the bits *below* i:
    consuming a byte toggles state bit i iff bit i of
    ``byte ^ (h mod 2**i) * _PRIME6`` is set.  The bits are therefore solved
    lowest first, each level a prefix parity of its toggles that restarts at
    every piece start: one global :func:`_prefix_parity`, then a per-piece
    constant (the parity just before the piece, and the piece's initial bit)
    is xor-ed back out.
    """
    length = len(buf)
    # Whole 64-bit words for _prefix_parity: the zero padding lengthens the
    # open piece past the end of the slice and is never read back.
    size = -(-length // 64) * 64
    data = _np.zeros(size, dtype=_np.uint8)
    data[:length] = _np.frombuffer(buf, dtype=_np.uint8)
    bounds = _np.array([0] + [end + 1 for end in ends if end + 1 < length] + [size],
                       dtype=_np.intp)
    starts = bounds[:-1]
    spans = bounds[1:] - starts
    last = starts[1:] - 1                      # last byte of the piece before
    inits = _np.full(len(starts), _INIT6, dtype=_np.uint8)
    inits[0] = state
    # The state bits solved so far, as of before / after each byte.
    before = _np.zeros(size, dtype=_np.uint8)
    after = _np.zeros(size, dtype=_np.uint8)
    toggles = _np.empty(size, dtype=_np.uint8)
    for level in range(_STATE_BITS):
        _np.multiply(before, _PRIME6, out=toggles)  # uint8: wraps mod 256
        toggles ^= data
        toggles &= 1 << level
        bit = _prefix_parity(toggles)
        offset = inits >> level & 1
        offset[1:] ^= bit[last]
        bit ^= _np.repeat(offset, spans)
        bit <<= level
        after |= bit
        before[1:] |= bit[:-1]
        before[starts] = inits & ((2 << level) - 1)
    closed = after[_np.array(ends, dtype=_np.intp)].tolist()
    if ends and ends[-1] == length - 1:
        return closed, _INIT6
    return closed, int(after[length - 1])


def _prefix_parity(flags):
    """Inclusive prefix parity of the nonzero entries of a ``uint8`` array.

    ``bitwise_xor.accumulate`` is one dependent step per element; packed 64
    flags to a word, six shift-xors give the prefix inside every word and the
    carry between words is an accumulate over 1/64 of the elements.  The
    length must be a multiple of 64.
    """
    words = _np.packbits(flags, bitorder="little").view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    odd = words >> 63                      # parity of each whole word
    carry = _np.bitwise_xor.accumulate(odd)
    carry ^= odd                           # ... of all the words before it
    words ^= carry * 0xFFFFFFFFFFFFFFFF
    return _np.unpackbits(words.view(_np.uint8), bitorder="little")
