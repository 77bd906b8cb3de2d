"""Context-Triggered Piecewise Hashing (CTPH) -- an SSDeep reimplementation.

SIREN uses ``libfuzzy`` (the ssdeep library) to fuzzy-hash executables, their
printable strings, their global ELF symbols, and the collected
module/compiler/library lists.  This module is a from-scratch
implementation of the same algorithm (Kornblum, "Identifying almost identical
files using context triggered piecewise hashing", 2006):

Hashing
    A 7-byte rolling hash (:data:`~repro.hashing.rolling.ROLLING_WINDOW`) is
    updated for every input byte.  Whenever its value is congruent to
    ``blocksize - 1`` (mod blocksize) the current *piece* ends: the piece's
    FNV hash contributes one base64 character to the signature and the piece
    hash restarts.  Two signatures are produced simultaneously, one at the
    chosen block size and one at twice that size, so that files of somewhat
    different lengths can still be compared.  The block size starts at
    ``MIN_BLOCKSIZE`` and doubles until the expected signature fits in
    ``SPAMSUM_LENGTH`` (64) characters; if the resulting signature turns out
    too short, the block size is halved and the file rehashed.

Comparison
    Signatures are comparable only if their block sizes are equal or off by a
    factor of two.  Runs of more than three identical characters are collapsed
    (they carry little information and inflate scores), a common 7-gram is
    required, and a weighted Damerau-Levenshtein distance is rescaled into a
    0-100 match score, capped for very small block sizes to avoid spurious
    high scores on tiny inputs.

These rules are fixed, as in libfuzzy: :class:`FuzzyHasher` takes no
parameters, so every digest and score in the system is made under them.

The output format is the familiar ``blocksize:sig1:sig2`` string, so values
look and behave like real ssdeep digests (although they are not bit-for-bit
identical to libfuzzy's output, which is irrelevant here because SIREN only
ever compares SIREN-produced hashes with each other).

Hashing runs on the one-shot engine in :mod:`repro.hashing.engine` (one
trigger scan serves all candidate block sizes, so nothing is ever rescanned)
and takes a batch: :meth:`FuzzyHasher.hash_many` digests any number of
payloads in one scan and one piece-hash pass, and ``hash`` is its
one-payload case;
the naive loop described above is the test oracle in ``tests/oracles/ctph.py``,
which the engine's digests are pinned against.  Production *comparison*
likewise runs on the batched bit-parallel
engine of :mod:`repro.hashing.compare_engine` (per-digest normalization
cache + word-parallel LCS kernel).  Its one pair scorer is
:meth:`FuzzyHasher.compare_pairs`: a batch of digest pairs, in any order and
against any number of baselines, is answered from the compare LRU where it
can be and otherwise by one kernel call over every signature alignment the
batch needs, rescaled and capped as arrays; ``compare`` and ``compare_many``
are its one-pair and one-baseline cases.  The scalar path described above is
the test oracle in ``tests/oracles/compare.py``, which the engine's scores
are pinned against.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from repro.hashing.compare_engine import CompareCache, lcs_length_many, normalize_digest
from repro.hashing.engine import fuzzy_digests
from repro.hashing.rolling import ROLLING_WINDOW

#: Minimum block size -- signatures at smaller block sizes carry no structure.
MIN_BLOCKSIZE = 3
#: Maximum signature length (characters) for the primary signature.
SPAMSUM_LENGTH = 64
#: Bands (block sizes) below this cap a score by the shorter signature's length.
_CAP_BELOW = (99 + ROLLING_WINDOW) // ROLLING_WINDOW * MIN_BLOCKSIZE


class FuzzyHasher:
    """ssdeep's CTPH hasher, with a compare LRU of digest pairs.

    It hashes as libfuzzy does -- block sizes from :data:`MIN_BLOCKSIZE` up,
    :data:`SPAMSUM_LENGTH`-character signatures -- into ``blocksize:sig1:sig2``
    digest strings, and scores a signature pair only when the two share a
    7-gram, the rule the n-gram index of :mod:`repro.analysis.simindex`
    prunes by.  A digest :func:`~repro.hashing.compare_engine.normalize_digest`
    cannot parse scores 0 against anything.
    """

    def __init__(self) -> None:
        # Per-instance LRU over *digest string* pairs.  ``compare`` is
        # symmetric, so keys are normalised to the sorted pair, doubling the
        # hit rate when the same instances meet in either order.  The cache
        # holds only strings and scores -- never ``self`` -- so the hasher
        # is not pinned in a reference cycle (the seed's ``lru_cache`` over
        # the bound method was).
        self._compare_cache = CompareCache()

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def hash_many(self, payloads: Sequence[bytes]) -> list[str]:
        """The ``blocksize:sig1:sig2`` digest of each payload, in order.

        Runs on the one-shot engine (:func:`repro.hashing.engine.fuzzy_digests`):
        one trigger scan of the whole batch however often a block size halves,
        one piece-hash pass for every payload's two signatures, no per-byte
        Python call once the batch passes the kernel crossover, and each
        digest byte-identical to the per-byte reference's of its payload
        alone (pinned by golden tests).
        """
        if not all(isinstance(data, (bytes, bytearray, memoryview)) for data in payloads):
            raise TypeError("FuzzyHasher hashes bytes-like payloads only")
        return [f"{block_size}:{sig1}:{sig2}" for block_size, sig1, sig2 in fuzzy_digests(
            [bytes(data) for data in payloads], MIN_BLOCKSIZE, SPAMSUM_LENGTH)]

    def hash(self, data: bytes) -> str:
        """The digest of ``data``: :meth:`hash_many` of one payload."""
        return self.hash_many([data])[0]

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #
    def compare(self, first: str, second: str) -> int:
        """Return the 0-100 similarity score between two digests."""
        return self._score_pairs([(first, second)])[0]

    def compare_many(self, baseline: str, candidates: list[str]) -> list[int]:
        """Score ``baseline`` against each candidate: :meth:`compare_pairs` of one baseline."""
        return self.compare_pairs([(baseline, candidate) for candidate in candidates])

    def compare_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[int]:
        """Score digest pairs; matches scalar compare, one score per pair, in order.

        The one pair scorer of similarity search, the pairwise matrices and
        live analysis: repeated pairs (in either order) are scored once, the
        compare LRU answers every pair a previous call scored, and the rest
        are scored together -- all their signature alignments in one
        multi-pattern kernel call.  Every pair scored is put into the LRU.
        Byte-identical to ``[self.compare(a, b) for a, b in pairs]``.
        """
        keys = [(a, b) if a <= b else (b, a) for a, b in pairs]
        # One pair per key, as the caller ordered it: the first digests'
        # signatures become the kernel's patterns, few when one side repeats.
        unique = dict(zip(keys, pairs))
        scores = self._compare_cache.lookup(unique)
        pending = [key for key in unique if key not in scores]
        scored = dict(zip(pending, self._score_pairs([unique[key] for key in pending])))
        self._compare_cache.store(scored)
        scores.update(scored)
        return [scores[key] for key in keys]

    def compare_cache_info(self):
        """Hit/miss statistics of the shared compare LRU."""
        return self._compare_cache.info()

    # -- the pair scorer ------------------------------------------------- #
    @classmethod
    def _score_pairs(cls, pairs: Sequence[tuple[str, str]]) -> list[int]:
        """Score digest pairs without the LRU: one kernel call for every alignment.

        Immediately decidable pairs (a side that does not parse, incompatible
        block sizes, equal signatures at one block size) resolve inline.
        Every other pair contributes the signature alignments ``compare``
        scores -- both chunk parts and both double-chunk parts at one block
        size, the one part pair of matching block size otherwise -- that
        share a 7-gram (so neither signature is empty), each capped by its
        band: the block size the aligned signatures were computed at.  All
        alignments go to one :func:`~repro.hashing.compare_engine.lcs_length_many`
        call with the first digest's signature as the pattern, their scores
        are :meth:`_scores` of the resulting distances, and a pair scores the
        best of its alignments.
        """
        results = [0] * len(pairs)
        alignments: list[tuple[int, str, str, int]] = []
        for position, (first, second) in enumerate(pairs):
            na, nb = normalize_digest(first), normalize_digest(second)
            if na is None or nb is None:
                continue
            b1, b2 = na.block_size, nb.block_size
            if b1 == b2:
                if na.s1 == nb.s1 and na.s2 == nb.s2 and na.s1:
                    results[position] = 100
                    continue
                parts = ((na.s1, nb.s1, na.grams1, nb.grams1, b1),
                         (na.s2, nb.s2, na.grams2, nb.grams2, b1 * 2))
            elif b1 == b2 * 2:
                parts = ((na.s1, nb.s2, na.grams1, nb.grams2, b1),)
            elif b2 == b1 * 2:
                parts = ((na.s2, nb.s1, na.grams2, nb.grams1, b2),)
            else:
                continue
            for pattern, text, grams, other, band in parts:
                if not grams.isdisjoint(other):
                    alignments.append((position, pattern, text, cls._cap_unit(band)))
        if not alignments:
            return results
        owners, patterns, texts, units = zip(*alignments)
        m = _np.fromiter(map(len, patterns), dtype=_np.intp, count=len(patterns))
        n = _np.fromiter(map(len, texts), dtype=_np.intp, count=len(texts))
        best = _np.array(results, dtype=_np.intp)
        _np.maximum.at(best, _np.array(owners, dtype=_np.intp),
                       cls._scores(m + n - 2 * lcs_length_many(patterns, texts), m, n,
                                   _np.array(units, dtype=_np.intp)))
        return best.tolist()

    # -- shared scoring arithmetic -------------------------------------- #
    @staticmethod
    def _cap_unit(band: int) -> int:
        """How high a score in ``band`` may go per character of the shorter signature.

        Below the small-block threshold short inputs cannot claim
        near-perfect scores: ``band // MIN_BLOCKSIZE`` a character.  At or
        above it the unit is 100, which never binds.
        """
        return band // MIN_BLOCKSIZE if band < _CAP_BELOW else 100

    @staticmethod
    def _scores(distance, len1, len2, cap_unit):
        """Edit distances -> 0-100 scores, elementwise over arrays (or ints).

        ssdeep's ``score_strings()`` rescale, then the small-block cap of
        :meth:`_cap_unit` per character of the shorter signature.  The
        kernel and the scalar oracle (``tests/oracles/compare.py``) share
        this arithmetic, so their scores cannot drift: any distance at or
        above ``len1 + len2`` scores 0, which is also why the oracle's
        bounded DP -- whose early-exit value is only a lower bound once it
        exceeds ``len1 + len2 - 1`` -- yields the same score as the kernel's
        exact distance.
        """
        scaled = (100 * ((distance * SPAMSUM_LENGTH) // (len1 + len2))) // SPAMSUM_LENGTH
        return _np.minimum(_np.maximum(100 - scaled, 0), cap_unit * _np.minimum(len1, len2))
