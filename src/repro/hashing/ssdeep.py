"""Context-Triggered Piecewise Hashing (CTPH) -- an SSDeep reimplementation.

SIREN uses ``libfuzzy`` (the ssdeep library) to fuzzy-hash executables, their
printable strings, their global ELF symbols, and the collected
module/compiler/library lists.  This module is a from-scratch pure-Python
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

from dataclasses import dataclass

from repro.hashing.compare_engine import (
    CompareCache,
    NormalizedDigest,
    default_cost_distance_many,
    normalize_digest,
    normalize_parsed,
)
from repro.hashing.engine import fuzzy_digest
from repro.hashing.rolling import ROLLING_WINDOW

#: Minimum block size -- signatures at smaller block sizes carry no structure.
MIN_BLOCKSIZE = 3
#: Maximum signature length (characters) for the primary signature.
SPAMSUM_LENGTH = 64
#: Maximum length of a run of identical characters kept during comparison.
MAX_SEQUENCE = 3


@dataclass(frozen=True)
class FuzzyHash:
    """A parsed fuzzy hash: block size plus the two signature strings."""

    block_size: int
    sig1: str
    sig2: str

    def __str__(self) -> str:
        return f"{self.block_size}:{self.sig1}:{self.sig2}"

    @classmethod
    def parse(cls, digest: str) -> "FuzzyHash":
        """Parse a ``blocksize:sig1:sig2`` digest string."""
        parts = digest.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"not a fuzzy hash: {digest!r}")
        try:
            block_size = int(parts[0])
        except ValueError as exc:
            raise ValueError(f"invalid block size in fuzzy hash: {digest!r}") from exc
        if block_size <= 0:
            raise ValueError(f"block size must be positive: {digest!r}")
        return cls(block_size=block_size, sig1=parts[1], sig2=parts[2])


class FuzzyHasher:
    """Configurable CTPH hasher.

    The defaults reproduce ssdeep's behaviour; the knobs exist mainly for the
    ablation benchmarks (e.g. disabling the double-block-size signature or the
    common-substring requirement to show why they matter).
    """

    def __init__(
        self,
        min_block_size: int = MIN_BLOCKSIZE,
        signature_length: int = SPAMSUM_LENGTH,
        require_common_substring: bool = True,
        compare_cache_size: int = 65536,
    ) -> None:
        if min_block_size < 1:
            raise ValueError("min_block_size must be >= 1")
        if signature_length < 8:
            raise ValueError("signature_length must be >= 8")
        self.min_block_size = min_block_size
        self.signature_length = signature_length
        self._require_common_substring = require_common_substring
        # Per-instance LRU over *digest string* pairs.  ``compare`` is
        # symmetric, so keys are normalised to the sorted pair, doubling the
        # hit rate when the same instances meet in either order.  The cache
        # holds only strings and scores -- never ``self`` -- so the hasher
        # is not pinned in a reference cycle (the seed's ``lru_cache`` over
        # the bound method was).
        self._compare_cache = CompareCache(maxsize=compare_cache_size)

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def hash(self, data: bytes) -> FuzzyHash:
        """Compute the fuzzy hash of ``data``.

        Runs on the one-shot engine (:func:`repro.hashing.engine.fuzzy_digest`):
        one scan of the payload however often the block size halves, no
        per-byte Python call above the kernel crossover, and digests
        byte-identical to the per-byte reference (pinned by golden tests).
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("FuzzyHasher.hash expects bytes-like input")
        block_size, sig1, sig2 = fuzzy_digest(bytes(data), self.min_block_size,
                                              self.signature_length)
        return FuzzyHash(block_size=block_size, sig1=sig1, sig2=sig2)

    def hash_text(self, text: str) -> FuzzyHash:
        """Fuzzy-hash a text payload (UTF-8 encoded)."""
        return self.hash(text.encode("utf-8"))

    def digest(self, data: bytes) -> str:
        """Convenience: return the digest string directly."""
        return str(self.hash(data))

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #
    @property
    def require_common_substring(self) -> bool:
        """Whether scoring demands a shared 7-gram (ssdeep's gate).

        Assigning a different value clears the compare LRU -- cached scores
        were computed under the old gate and would otherwise go stale.
        """
        return self._require_common_substring

    @require_common_substring.setter
    def require_common_substring(self, value: bool) -> None:
        if bool(value) != self._require_common_substring:
            self._require_common_substring = bool(value)
            self.compare_cache_clear()

    def compare(self, first: FuzzyHash | str, second: FuzzyHash | str) -> int:
        """Return the 0-100 similarity score between two fuzzy hashes."""
        return self._compare_batch(self._normalize(first),
                                   [self._normalize(second)])[0]

    @staticmethod
    def _normalize(digest: FuzzyHash | str) -> NormalizedDigest:
        """Normalise a digest string (cached) or a ``FuzzyHash``'s components.

        Objects go through the component-level path so hand-constructed
        ``FuzzyHash`` values that would not survive a str()+re-parse round
        trip still score identically to the scalar oracle.
        """
        if isinstance(digest, str):
            return normalize_digest(digest)
        return normalize_parsed(digest.block_size, digest.sig1, digest.sig2)

    def compare_many(self, baseline: FuzzyHash | str,
                     candidates: list) -> list[int]:
        """Score ``baseline`` against a candidate batch; matches scalar compare.

        The batched hot path of similarity search, the pairwise matrices and
        live analysis: the baseline is normalised once, repeated candidate
        digests are deduplicated and every unique pair is scored exactly once
        -- through the compare LRU first (a pair a previous sweep or a scalar
        :meth:`compare_cached` call already scored is a hit), then through
        the one-vs-many bit-parallel kernel, which advances the whole
        remaining batch one signature column per word operation.  Every
        scored pair is inserted into the LRU, so later scalar callers
        benefit too.  Returns one 0-100 score per candidate, in order,
        byte-identical to ``[self.compare(baseline, c) for c in candidates]``.
        """
        base = baseline if isinstance(baseline, str) else str(baseline)
        # Dedup and cache-key by digest string, but score from the *source*
        # value (component path for FuzzyHash objects, exactly like scalar
        # compare), so object candidates whose signatures would not survive
        # a str()+re-parse round trip still match the scalar loop.  String
        # keying leaves the same (pre-existing) ambiguity compare_cached
        # has: distinct objects sharing one digest string share one score.
        keys: list[str] = []
        unique: dict[str, FuzzyHash | str] = {}
        for candidate in candidates:
            key = candidate if isinstance(candidate, str) else str(candidate)
            keys.append(key)
            if key not in unique:
                unique[key] = candidate
        scores: dict[str, int] = {}
        pending: list[str] = []
        for key in unique:
            cached = self._compare_cache.get(self._pair_key(base, key))
            if cached is not None:
                scores[key] = cached
            else:
                pending.append(key)
        if pending:
            computed = self._compare_batch(
                self._normalize(baseline),
                [self._normalize(unique[key]) for key in pending])
            for key, score in zip(pending, computed):
                self._compare_cache.put(self._pair_key(base, key), score)
                scores[key] = score
        return [scores[key] for key in keys]

    def compare_cached(self, first: FuzzyHash | str, second: FuzzyHash | str) -> int:
        """:meth:`compare` memoised on the (order-normalised) digest pair.

        Similarity search compares the same small set of digests against each
        other over and over (every UNKNOWN baseline meets every candidate, and
        the pairwise matrix meets every pair twice through symmetry); the
        signature alignment is by far the most expensive step, so an LRU keyed
        on the digest pair removes all repeat work.  :meth:`compare_many`
        feeds the same cache, so batch sweeps and scalar lookups share hits.
        """
        a = str(first)
        b = str(second)
        if b < a:
            a, b = b, a
        cached = self._compare_cache.get((a, b))
        if cached is None:
            cached = self.compare(a, b)
            self._compare_cache.put((a, b), cached)
        return cached

    def compare_cache_info(self):
        """Hit/miss statistics of the shared compare LRU."""
        return self._compare_cache.info()

    def compare_cache_clear(self) -> None:
        """Drop every cached score (call after changing comparison knobs).

        The :attr:`require_common_substring` setter calls this automatically;
        callers mutating scoring-relevant state by other means must call it
        themselves, or the LRU serves scores computed under the old knobs.
        """
        self._compare_cache.clear()

    @staticmethod
    def _pair_key(a: str, b: str) -> tuple[str, str]:
        """Order-normalised LRU key (compare is symmetric)."""
        return (a, b) if a <= b else (b, a)

    # -- bit-parallel kernel -------------------------------------------- #
    def _compare_batch(self, na: NormalizedDigest,
                       pending: list[NormalizedDigest]) -> list[int]:
        """Score one normalised baseline against many normalised candidates.

        Immediately decidable components (incompatible bands, empty or equal
        signatures, no shared 7-gram) resolve inline; the rest queue into at
        most two one-vs-many kernel sweeps -- one per baseline signature,
        since that signature is the kernel's pattern whichever candidate
        signature it aligns against.  Each sweep also has one fixed scoring
        band: the baseline's block size for its chunk signature, double it
        for the double-chunk signature (exactly the bands the scalar oracle
        passes for the corresponding alignments).
        """
        results = [0] * len(pending)
        # Alignments needing a distance, grouped by baseline signature:
        # (candidate position, candidate signature).
        queue1: list[tuple[int, str]] = []
        queue2: list[tuple[int, str]] = []
        band1 = na.block_size
        band2 = na.block_size * 2
        for position, nb in enumerate(pending):
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
        if self._require_common_substring and not (grams1 & grams2):
            return
        if s1 == s2:
            score = self._apply_cap(100, len(s1), len(s2), band)
            if score > results[position]:
                results[position] = score
            return
        queue.append((position, s2))

    # -- shared scoring arithmetic -------------------------------------- #
    def _rescale(self, distance: int, len1: int, len2: int) -> int | None:
        """Edit distance -> raw 0-100 score; ``None`` when it rescales past 0.

        Mirrors ssdeep's ``score_strings()`` rescaling.  The kernel and the
        scalar oracle (``tests/oracles/compare.py``) share this arithmetic,
        so their scores cannot drift: any distance at or above
        ``len1 + len2`` maps to ``None`` (score 0), which is also why the
        oracle's bounded DP -- whose early-exit value is only a lower bound
        once it exceeds ``len1 + len2 - 1`` -- yields the same score as the
        kernel's exact distance.
        """
        scaled = (distance * self.signature_length) // (len1 + len2)
        scaled = (100 * scaled) // self.signature_length
        if scaled >= 100:
            return None
        return 100 - scaled

    def _apply_cap(self, score: int, len1: int, len2: int, block_size: int) -> int:
        """Small-block-size cap: short inputs cannot claim near-perfect scores."""
        threshold = (99 + ROLLING_WINDOW) // ROLLING_WINDOW * self.min_block_size
        if block_size < threshold:
            cap = block_size // self.min_block_size * min(len1, len2)
            score = min(score, cap)
        return max(0, min(100, score))


def eliminate_sequences(signature: str) -> str:
    """Collapse runs of more than :data:`MAX_SEQUENCE` identical characters.

    This is the normalisation :meth:`FuzzyHasher.compare` applies to both
    signatures before scoring them; anything that reasons about which digests
    *can* score non-zero (notably the n-gram index in
    :mod:`repro.analysis.simindex`) must apply the same normalisation.
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


# Module-level singleton mirroring libfuzzy's stateless API ------------------
_DEFAULT_HASHER = FuzzyHasher()


def fuzzy_hash(data: bytes) -> str:
    """Fuzzy-hash a bytes payload with default parameters (digest string)."""
    return _DEFAULT_HASHER.digest(data)


def fuzzy_hash_text(text: str) -> str:
    """Fuzzy-hash a text payload (UTF-8) with default parameters."""
    return str(_DEFAULT_HASHER.hash_text(text))


def compare(first: FuzzyHash | str, second: FuzzyHash | str) -> int:
    """Compare two fuzzy hashes with default parameters (0-100)."""
    return _DEFAULT_HASHER.compare(first, second)
