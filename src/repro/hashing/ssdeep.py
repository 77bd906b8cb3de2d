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
trigger scan serves all candidate block sizes, so nothing is ever rescanned);
the naive loop described above is the test oracle in ``tests/oracles/ctph.py``,
which the engine's digests are pinned against.  Production *comparison*
likewise runs on the batched bit-parallel
engine of :mod:`repro.hashing.compare_engine` (per-digest normalization
cache + word-parallel LCS kernel, batched via :meth:`FuzzyHasher.compare_many`);
the scalar path described above is the test oracle in
``tests/oracles/compare.py``, which the engine's scores are pinned against.
"""

from __future__ import annotations

from repro.hashing.compare_engine import (
    CompareCache,
    NormalizedDigest,
    default_cost_distance_many,
    normalize_digest,
)
from repro.hashing.engine import fuzzy_digest
from repro.hashing.rolling import ROLLING_WINDOW

#: Minimum block size -- signatures at smaller block sizes carry no structure.
MIN_BLOCKSIZE = 3
#: Maximum signature length (characters) for the primary signature.
SPAMSUM_LENGTH = 64


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
    def hash(self, data: bytes) -> str:
        """The ``blocksize:sig1:sig2`` digest of ``data``.

        Runs on the one-shot engine (:func:`repro.hashing.engine.fuzzy_digest`):
        one scan of the payload however often the block size halves, no
        per-byte Python call above the kernel crossover, and digests
        byte-identical to the per-byte reference (pinned by golden tests).
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("FuzzyHasher.hash expects bytes-like input")
        block_size, sig1, sig2 = fuzzy_digest(bytes(data), MIN_BLOCKSIZE, SPAMSUM_LENGTH)
        return f"{block_size}:{sig1}:{sig2}"

    def hash_text(self, text: str) -> str:
        """The digest of a text payload (UTF-8 encoded)."""
        return self.hash(text.encode("utf-8"))

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #
    def compare(self, first: str, second: str) -> int:
        """Return the 0-100 similarity score between two digests."""
        return self._compare_batch(normalize_digest(first), [normalize_digest(second)])[0]

    def compare_many(self, baseline: str, candidates: list[str]) -> list[int]:
        """Score ``baseline`` against a candidate batch; matches scalar compare.

        The batched hot path of similarity search, the pairwise matrices and
        live analysis: the baseline is normalised once, repeated candidate
        digests are deduplicated and every unique pair is scored exactly once
        -- through the compare LRU first (a pair a previous sweep already
        scored is a hit), then through the one-vs-many bit-parallel kernel,
        which advances the whole remaining batch one signature column per
        word operation.  Every scored pair is inserted into the LRU.  Returns
        one 0-100 score per candidate, in order, byte-identical to
        ``[self.compare(baseline, c) for c in candidates]``.
        """
        scores: dict[str, int] = {}
        pending: list[str] = []
        for candidate in dict.fromkeys(candidates):
            cached = self._compare_cache.get(self._pair_key(baseline, candidate))
            if cached is None:
                pending.append(candidate)
            else:
                scores[candidate] = cached
        if pending:
            computed = self._compare_batch(normalize_digest(baseline),
                                           [normalize_digest(key) for key in pending])
            for candidate, score in zip(pending, computed):
                self._compare_cache.put(self._pair_key(baseline, candidate), score)
                scores[candidate] = score
        return [scores[candidate] for candidate in candidates]

    def compare_cache_info(self):
        """Hit/miss statistics of the shared compare LRU."""
        return self._compare_cache.info()

    @staticmethod
    def _pair_key(a: str, b: str) -> tuple[str, str]:
        """Order-normalised LRU key (compare is symmetric)."""
        return (a, b) if a <= b else (b, a)

    # -- bit-parallel kernel -------------------------------------------- #
    def _compare_batch(self, na: NormalizedDigest | None,
                       pending: list[NormalizedDigest | None]) -> list[int]:
        """Score one normalised baseline against many normalised candidates.

        Immediately decidable components (incompatible bands, empty or equal
        signatures, no shared 7-gram) resolve inline; the rest queue into at
        most two one-vs-many kernel sweeps -- one per baseline signature,
        since that signature is the kernel's pattern whichever candidate
        signature it aligns against.  Each sweep also has one fixed scoring
        band: the baseline's block size for its chunk signature, double it
        for the double-chunk signature (exactly the bands the scalar oracle
        passes for the corresponding alignments).  A digest that did not
        parse (``None``) scores 0 on either side.
        """
        results = [0] * len(pending)
        if na is None:
            return results
        # Alignments needing a distance, grouped by baseline signature:
        # (candidate position, candidate signature).
        queue1: list[tuple[int, str]] = []
        queue2: list[tuple[int, str]] = []
        band1 = na.block_size
        band2 = na.block_size * 2
        for position, nb in enumerate(pending):
            if nb is None:
                continue
            b1, b2 = na.block_size, nb.block_size
            if b1 != b2 and b1 != b2 * 2 and b2 != b1 * 2:
                continue
            if b1 == b2 and na.s1 == nb.s1 and na.s2 == nb.s2 and na.s1:
                results[position] = 100
                continue
            if b1 == b2:
                self._queue_component(position, na.s1, nb.s1, na.grams1, nb.grams1,
                                      band1, results, queue1)
                self._queue_component(position, na.s2, nb.s2, na.grams2, nb.grams2,
                                      band2, results, queue2)
            elif b1 == b2 * 2:
                self._queue_component(position, na.s1, nb.s2, na.grams1, nb.grams2,
                                      band1, results, queue1)
            else:
                self._queue_component(position, na.s2, nb.s1, na.grams2, nb.grams1,
                                      band2, results, queue2)
        for pattern, masks, band, queue in ((na.s1, na.masks1, band1, queue1),
                                            (na.s2, na.masks2, band2, queue2)):
            if not queue:
                continue
            texts = [text for _, text in queue]
            distances = default_cost_distance_many(pattern, texts, masks)
            for (position, text), distance in zip(queue, distances):
                score = self._rescale(distance, len(pattern), len(text))
                if score is None:
                    continue
                score = self._apply_cap(score, len(pattern), len(text), band)
                if score > results[position]:
                    results[position] = score
        return results

    def _queue_component(self, position: int, s1: str, s2: str,
                         grams1: frozenset, grams2: frozenset, band: int,
                         results: list[int], queue: list) -> None:
        """Resolve one alignment inline or queue it for the batched kernel."""
        if not s1 or not s2:
            return
        if not (grams1 & grams2):
            return
        if s1 == s2:
            score = self._apply_cap(100, len(s1), len(s2), band)
            if score > results[position]:
                results[position] = score
            return
        queue.append((position, s2))

    # -- shared scoring arithmetic -------------------------------------- #
    @staticmethod
    def _rescale(distance: int, len1: int, len2: int) -> int | None:
        """Edit distance -> raw 0-100 score; ``None`` when it rescales past 0.

        Mirrors ssdeep's ``score_strings()`` rescaling.  The kernel and the
        scalar oracle (``tests/oracles/compare.py``) share this arithmetic,
        so their scores cannot drift: any distance at or above
        ``len1 + len2`` maps to ``None`` (score 0), which is also why the
        oracle's bounded DP -- whose early-exit value is only a lower bound
        once it exceeds ``len1 + len2 - 1`` -- yields the same score as the
        kernel's exact distance.
        """
        scaled = (distance * SPAMSUM_LENGTH) // (len1 + len2)
        scaled = (100 * scaled) // SPAMSUM_LENGTH
        if scaled >= 100:
            return None
        return 100 - scaled

    @staticmethod
    def _apply_cap(score: int, len1: int, len2: int, block_size: int) -> int:
        """Small-block-size cap: short inputs cannot claim near-perfect scores."""
        threshold = (99 + ROLLING_WINDOW) // ROLLING_WINDOW * MIN_BLOCKSIZE
        if block_size < threshold:
            cap = block_size // MIN_BLOCKSIZE * min(len1, len2)
            score = min(score, cap)
        return max(0, min(100, score))
