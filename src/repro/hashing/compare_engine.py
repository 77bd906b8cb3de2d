"""Batched bit-parallel signature comparison engine.

PR 1 prunes candidate pairs and the hashing engine made *producing* digests
fast, but every pair surviving the prune still paid a per-pair pure-Python
toll: ``compare`` re-parsed both digests, re-ran run-length normalisation
four times, and executed an ``O(64*64)`` Python DP.  This module removes
that last unvectorised hot path with three pieces:

Normalization cache
    :func:`normalize_digest` parses a digest string once and caches
    everything the comparison needs per *unique digest* instead of per pair:
    the block size, both run-length-normalised signatures and their 7-gram
    sets (so the common-substring gate becomes one frozenset intersection).

Bit-parallel LCS kernel
    With the scorer's fixed costs (insert/delete 1, substitute 2, transpose
    2) a substitution or adjacent transposition never beats the
    delete+insert pair it replaces, so the weighted Damerau-Levenshtein
    distance collapses to the indel-only distance

        ``d(a, b) = len(a) + len(b) - 2 * LCS(a, b)``

    and LCS length admits the Hyyro/Allison-Dix word-parallel recurrence:
    one machine word per DP *column*, ``O(ceil(m/64) * n)`` word operations
    instead of ``O(m*n)`` Python-level cell updates.  Signatures are at most
    64 characters after normalisation, i.e. exactly one word.
    :func:`lcs_length` runs the recurrence on Python integers (any pattern
    length: a longer pattern just widens the int), and
    :func:`lcs_length_many` vectorises it with numpy over rows of
    (pattern, text) alignments, each row with a pattern of its own: every
    alignment a search round needs advances one text column per ``uint64``
    array operation, in one call.

Compare LRU
    :class:`CompareCache` is the explicit LRU behind
    ``FuzzyHasher.compare_pairs``.  The seed implementation wrapped a bound
    method in ``functools.lru_cache``, which pinned the hasher inside a
    reference cycle (hasher -> cache -> bound method -> hasher) until a GC
    pass; this cache stores only digest strings and scores, so dropping the
    hasher frees it immediately.  It is read and written a batch at a time:
    one lookup for all of a call's pairs, one store of what the kernel
    scored.

The kernel is exact, not approximate: scores produced through this module
are byte-identical to the scalar DP oracle in ``tests/oracles/compare.py``
(pinned by the property tests in ``tests/hashing/test_compare_engine.py``).
The reduction above only holds for the scorer's 1/1/2/2 costs.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as _np

from repro.hashing.rolling import ROLLING_WINDOW

#: n-gram length of the common-substring gate -- ssdeep's 7-gram, the
#: rolling window; the scalar oracle gates on the same length.
NGRAM = ROLLING_WINDOW

#: Below this many rows the scalar kernel (~9 us a 32-character row, ~16 us
#: at 60) is cheaper than the batch's column loop (~90-150 us at 32 columns,
#: ~150-250 us at 60, however few the rows); host-measured, they cross at
#: 12-16 rows.
_MIN_BATCH = 16

# --------------------------------------------------------------------------- #
# per-digest normalization cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NormalizedDigest:
    """Everything ``compare`` needs from one digest, computed once.

    ``s1``/``s2`` are the run-length-normalised signatures and ``grams1`` /
    ``grams2`` their 7-gram sets (the common-substring gate is a frozenset
    intersection).
    """

    block_size: int
    s1: str
    s2: str
    grams1: frozenset[str]
    grams2: frozenset[str]


def signature_masks(signature: str) -> dict[str, int]:
    """Per-character match-bit masks of ``signature``: the scalar kernel's pattern vectors.

    Bit ``i`` of ``masks[c]`` is set iff ``signature[i] == c``.
    """
    masks: dict[str, int] = {}
    for position, char in enumerate(signature):
        masks[char] = masks.get(char, 0) | (1 << position)
    return masks


def signature_grams(signature: str) -> frozenset[str]:
    """The :data:`NGRAM`-gram set of ``signature`` (empty for short signatures)."""
    if len(signature) < NGRAM:
        return frozenset()
    return frozenset(signature[i:i + NGRAM] for i in range(len(signature) - NGRAM + 1))


#: Maximum length of a run of identical characters kept during comparison.
MAX_SEQUENCE = 3

#: Entries carry gram sets (kilobytes, not the compare LRU's tens of bytes),
#: so the cap is sized for bounded residency: large enough that a campaign's
#: unique digests mostly stay resident, small enough that worst-case memory
#: stays in the tens of megabytes.
_NORMALIZE_CACHE_SIZE = 16384


def eliminate_sequences(signature: str) -> str:
    """Collapse runs of more than :data:`MAX_SEQUENCE` identical characters.

    This is the normalisation comparison applies to both signatures before
    scoring them; anything that reasons about which digests *can* score
    non-zero (notably the n-gram index in :mod:`repro.analysis.simindex`)
    must apply the same normalisation.
    """
    if len(signature) <= MAX_SEQUENCE:
        return signature
    out: list[str] = list(signature[:MAX_SEQUENCE])
    for index in range(MAX_SEQUENCE, len(signature)):
        char = signature[index]
        if not (
            char == signature[index - 1]
            and char == signature[index - 2]
            and char == signature[index - 3]
        ):
            out.append(char)
    return "".join(out)


@lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)
def normalize_digest(digest: str) -> NormalizedDigest | None:
    """Parse + normalise one ``blocksize:sig1:sig2`` digest, cached per string.

    The one digest parser: the block size is 1 to 20 ASCII digits (an
    unsigned long's width, as in libfuzzy) with a positive value, and the
    signatures are what follows its colon, split at the next one.  Anything
    else -- an empty digest, a truncated one with a single colon, a signed,
    padded, zero or overlong block size -- is ``None``, and every comparison
    scores a ``None`` side 0.  The cache is module-level and
    content-addressed -- normalisation depends only on the digest string --
    so every hasher and index shares it.
    """
    block, _, rest = digest.partition(":")
    if not (block.isascii() and block.isdigit() and len(block) <= 20) \
            or ":" not in rest or int(block) == 0:
        return None
    sig1, _, sig2 = rest.partition(":")
    s1 = eliminate_sequences(sig1)
    s2 = eliminate_sequences(sig2)
    return NormalizedDigest(
        block_size=int(block),
        s1=s1,
        s2=s2,
        grams1=signature_grams(s1),
        grams2=signature_grams(s2),
    )


#: :func:`signature_masks` per pattern the scalar kernel meets, so that many
#: small calls over the same digests (single ``compare`` calls, a live
#: refresh that adds an instance) build each pattern's vectors once.  Private:
#: the dicts are shared, and only :func:`lcs_length_many` reads them.
_pattern_masks = lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)(signature_masks)


def normalize_cache_clear() -> None:
    """Drop the module-level normalization cache (tests / memory pressure)."""
    normalize_digest.cache_clear()


# --------------------------------------------------------------------------- #
# bit-parallel LCS kernel
# --------------------------------------------------------------------------- #
def lcs_length(masks: dict[str, int], m: int, text: str) -> int:
    """Length of the LCS between the pattern behind ``masks`` and ``text``.

    The Hyyro/Allison-Dix recurrence: ``V`` starts all-ones over ``m`` bits;
    for each text character, ``U = V & PM[c]`` marks extendable matches and
    ``V = (V + U) | (V - U)`` advances every DP column one step in parallel.
    Zero bits of the final ``V`` count the LCS.  Python integers make the
    word as wide as the pattern needs, so any ``m`` is exact.
    """
    if not m or not text:
        return 0
    full = (1 << m) - 1
    v = full
    get = masks.get
    for char in text:
        p = get(char, 0)
        u = v & p
        v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


#: ``(1 << m) - 1`` for every pattern length a ``uint64`` row holds (0 to 64).
_FULL = _np.array([(1 << m) - 1 for m in range(65)], dtype=_np.uint64)
#: Bit ``i`` of a pattern's match mask: position ``i`` of a 64-character row.
_BITS = _np.left_shift(_np.uint64(1), _np.arange(64, dtype=_np.uint64))


def _byte_rows(strings: Sequence[str], width: int) -> _np.ndarray | None:
    """``strings`` as a latin-1 byte matrix, each row NUL-padded to ``width``
    (``None`` when a character falls outside latin-1)."""
    try:
        data = "".join([string.ljust(width, "\0") for string in strings]).encode("latin-1")
    except UnicodeEncodeError:
        return None
    return _np.frombuffer(data, dtype=_np.uint8).reshape(len(strings), width)


def lcs_length_many(patterns: Sequence[str], texts: Sequence[str]) -> _np.ndarray:
    """Row-wise :func:`lcs_length`: row ``i`` is the LCS of ``patterns[i]`` and ``texts[i]``.

    One call advances every row one text column per ``uint64`` array
    operation, whatever pattern each row carries.  The distinct patterns
    become a ``patterns x 256`` match-mask table (bit ``i`` of entry
    ``[p, c]`` is set iff character ``i`` of pattern ``p`` has latin-1 code
    ``c``), the texts a byte matrix -- one latin-1 ``encode``, ragged
    lengths padded with NUL, whose match mask is 0: a pad step leaves ``V``
    unchanged, so padding is a no-op -- and one gather by each row's
    pattern turns both into a row of match masks per column step.  Each row
    starts from its own full mask (``m`` ones), so patterns of any length
    up to 64 share the sweep.  Carries from ``V + U`` propagate upward
    only, so bits at and above a row's ``m`` never feed back into its live
    low bits and the mod-``2**64`` wrap is exact.  Under :data:`_MIN_BATCH`
    rows, or with a pattern wider than one word, a NUL in a pattern (pads
    would match it) or a character outside latin-1 anywhere, every row runs
    the scalar kernel instead -- the lengths are identical either way.
    """
    if not texts:
        return _np.zeros(0, dtype=_np.intp)
    distinct: dict[str, int] = {}
    which = [distinct.setdefault(pattern, len(distinct)) for pattern in patterns]
    codes = pattern_codes = None
    if len(texts) >= _MIN_BATCH and max(map(len, distinct)) <= 64 \
            and not any("\0" in pattern for pattern in distinct):
        codes = _byte_rows(texts, max(1, max(map(len, texts))))
        pattern_codes = _byte_rows(list(distinct), 64)
    if codes is None or pattern_codes is None:
        masks = [_pattern_masks(pattern) for pattern in distinct]
        return _np.array([lcs_length(masks[p], len(pattern), text) for p, pattern, text
                          in zip(which, patterns, texts)], dtype=_np.intp)
    lengths = _np.fromiter(map(len, distinct), dtype=_np.intp, count=len(distinct))
    live = _np.arange(64) < lengths[:, None]
    table = _np.zeros((len(distinct), 256), dtype=_np.uint64)
    _np.bitwise_or.at(table, (_np.nonzero(live)[0], pattern_codes[live]),
                      _np.broadcast_to(_BITS, live.shape)[live])
    rows = _np.array(which, dtype=_np.intp)
    m = lengths[rows]
    full = _FULL[m]
    v = full.copy()
    for p in table[rows, codes.T]:       # one gather: a row of match masks per column step
        u = v & p
        v = (v + u) | (v - u)
    return m - _np.bitwise_count(v & full).astype(_np.intp)


# --------------------------------------------------------------------------- #
# the shared compare LRU
# --------------------------------------------------------------------------- #
#: Digest pairs one hasher's compare LRU holds; read at every insert.
COMPARE_CACHE_SIZE = 65536


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-shaped statistics of a :class:`CompareCache`."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class CompareCache:
    """Explicit LRU of :data:`COMPARE_CACHE_SIZE` (digest, digest) -> score pairs.

    Unlike the seed's ``lru_cache`` over a bound method, this holds no
    reference to its owning hasher (keys are digest-string pairs, values are
    int scores), so a dropped hasher is freed without waiting for a cycle
    GC pass -- and batch scoring can :meth:`store` results directly.
    """

    __slots__ = ("hits", "misses", "_data")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[tuple[str, str], int] = OrderedDict()

    def lookup(self, keys: Collection[tuple[str, str]]) -> dict[tuple[str, str], int]:
        """The cached scores among distinct ``keys``, each counted as a hit or a miss."""
        data = self._data
        found = {key: data[key] for key in keys if key in data}
        for key in found:
            data.move_to_end(key)
        self.hits += len(found)
        self.misses += len(keys) - len(found)
        return found

    def store(self, scored: dict[tuple[str, str], int]) -> None:
        """Insert scored pairs as the most recently used, evicting beyond capacity."""
        if COMPARE_CACHE_SIZE <= 0:
            return
        data = self._data
        before = len(data)
        data.update(scored)
        if len(data) - before < len(scored):      # some were cached: they are recent now
            for key in scored:
                data.move_to_end(key)
        while len(data) > COMPARE_CACHE_SIZE:
            data.popitem(last=False)

    def info(self) -> CacheInfo:
        """``lru_cache``-compatible statistics tuple."""
        return CacheInfo(hits=self.hits, misses=self.misses,
                         maxsize=COMPARE_CACHE_SIZE, currsize=len(self._data))
