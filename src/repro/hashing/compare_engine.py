"""Batched bit-parallel signature comparison engine.

PR 1 prunes candidate pairs and the hashing engine made *producing* digests
fast, but every pair surviving the prune still paid a per-pair pure-Python
toll: ``compare`` re-parsed both digests, re-ran run-length normalisation
four times, and executed an ``O(64*64)`` Python DP.  This module removes
that last unvectorised hot path with three pieces:

Normalization cache
    :func:`normalize_digest` parses a digest string once and caches
    everything the comparison needs per *unique digest* instead of per pair:
    the block size, both run-length-normalised signatures, their 7-gram sets
    (so the common-substring gate becomes one frozenset intersection), and
    the per-character bitmasks the kernel consumes.

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
    :func:`lcs_length_many` vectorises the one-vs-many case with numpy:
    a whole candidate batch advances one text column per ``uint64`` array
    operation.

Compare LRU
    :class:`CompareCache` is the explicit LRU behind
    ``FuzzyHasher.compare_many``.  The seed implementation wrapped a bound
    method in ``functools.lru_cache``, which pinned the hasher inside a
    reference cycle (hasher -> cache -> bound method -> hasher) until a GC
    pass; this cache stores only digest strings and scores, so dropping the
    hasher frees it immediately, and batch scoring can feed it directly.

The kernel is exact, not approximate: scores produced through this module
are byte-identical to the scalar DP oracle in ``tests/oracles/compare.py``
(pinned by the property tests in ``tests/hashing/test_compare_engine.py``).
The reduction above only holds for the scorer's 1/1/2/2 costs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as _np

from repro.hashing.rolling import ROLLING_WINDOW

#: n-gram length of the common-substring gate -- ssdeep's 7-gram, the
#: rolling window; the scalar oracle gates on the same length.
NGRAM = ROLLING_WINDOW

#: Below this many texts the scalar kernel (~11 us a 60-character text) is
#: cheaper than the batch's column loop (~110 us however few the rows);
#: host-measured, they cross at 10-11 texts for 32- and 60-character patterns.
_MIN_BATCH = 10

#: ``numpy.bitwise_count`` arrived in numpy 2.0; older installs fall back to
#: the scalar kernel, which needs no popcount ufunc.
_BITWISE_COUNT = getattr(_np, "bitwise_count", None)


# --------------------------------------------------------------------------- #
# per-digest normalization cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NormalizedDigest:
    """Everything ``compare`` needs from one digest, computed once.

    ``s1``/``s2`` are the run-length-normalised signatures, ``grams1`` /
    ``grams2`` their 7-gram sets (the common-substring gate is a frozenset
    intersection), and ``masks1``/``masks2`` the per-character bit masks of
    each signature used as the kernel's pattern vectors (bit ``i`` of
    ``masks[c]`` is set iff ``sig[i] == c``).
    """

    block_size: int
    s1: str
    s2: str
    grams1: frozenset[str]
    grams2: frozenset[str]
    masks1: dict[str, int]
    masks2: dict[str, int]


def signature_masks(signature: str) -> dict[str, int]:
    """Per-character match-bit masks of ``signature`` (the pattern vectors)."""
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

#: Entries carry gram sets and mask dicts (kilobytes, not the compare LRU's
#: tens of bytes), so the cap is sized for bounded residency: large enough
#: that a campaign's unique digests mostly stay resident, small enough that
#: worst-case memory stays in the tens of megabytes.
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
        masks1=signature_masks(s1),
        masks2=signature_masks(s2),
    )


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


def lcs_length_many(masks: dict[str, int], m: int, texts: list[str]) -> list[int]:
    """One-vs-many :func:`lcs_length`: the whole batch advances per column.

    Candidates become rows of a byte matrix -- one ``encode`` of the batch,
    a character's code its latin-1 byte, ragged lengths padded with NUL, whose
    match mask is 0: a pad step leaves ``V`` unchanged, so padding is a
    no-op; each of the at-most-``max_len`` column steps is
    three ``uint64`` array operations over the entire batch.  Carries from
    ``V + U`` propagate upward only, so bits at and above ``m`` never feed
    back into the live low ``m`` bits and the mod-``2**64`` wrap is exact.
    Falls back to the scalar kernel for patterns wider than one word, tiny
    batches, numpy-free installs, a NUL in the pattern (pads would match it)
    or a text outside latin-1 -- results are identical either way.
    """
    if (_BITWISE_COUNT is None or m == 0 or m > 64 or len(texts) < _MIN_BATCH
            or "\0" in masks):
        return [lcs_length(masks, m, text) for text in texts]
    max_len = max(map(len, texts))
    if max_len == 0:
        return [0] * len(texts)
    try:
        codes = "".join([text.ljust(max_len, "\0") for text in texts]).encode("latin-1")
    except UnicodeEncodeError:
        return [lcs_length(masks, m, text) for text in texts]
    rows = _np.frombuffer(codes, dtype=_np.uint8).reshape(len(texts), max_len)
    table = _np.zeros(256, dtype=_np.uint64)
    for char, mask in masks.items():
        if char < "\u0100":
            table[ord(char)] = mask
    full = _np.uint64((1 << m) - 1)
    v = _np.full(len(texts), full, dtype=_np.uint64)
    for p in table[rows.T]:       # one gather: a row of match masks per column step
        u = v & p
        v = (v + u) | (v - u)
    return (m - _BITWISE_COUNT(v & full)).tolist()


def default_cost_distance_many(s1: str, texts: list[str],
                               masks1: dict[str, int] | None = None) -> list[int]:
    """The scorer's weighted edit distance from ``s1`` to each text, via the kernel.

    Equals the weighted Damerau-Levenshtein distance at the default 1/1/2/2
    costs: substitutions and transpositions cost exactly a delete+insert
    pair, so only the indel distance ``len(s1) + len(text) - 2*LCS`` remains.
    """
    if masks1 is None:
        masks1 = signature_masks(s1)
    m = len(s1)
    return [m + len(text) - 2 * lcs for text, lcs
            in zip(texts, lcs_length_many(masks1, m, texts))]


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
    GC pass -- and batch scoring can :meth:`put` results directly.
    """

    __slots__ = ("hits", "misses", "_data")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[tuple[str, str], int] = OrderedDict()

    def get(self, key: tuple[str, str]) -> int | None:
        """The cached score for ``key``, or ``None`` (counted as hit/miss)."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: tuple[str, str], value: int) -> None:
        """Insert one scored pair, evicting the least recently used beyond capacity."""
        if COMPARE_CACHE_SIZE <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > COMPARE_CACHE_SIZE:
            self._data.popitem(last=False)

    def info(self) -> CacheInfo:
        """``lru_cache``-compatible statistics tuple."""
        return CacheInfo(hits=self.hits, misses=self.misses,
                         maxsize=COMPARE_CACHE_SIZE, currsize=len(self._data))
