"""Inverted n-gram index over CTPH digests -- candidate pruning at scale.

The similarity search of Table 7 compares every UNKNOWN baseline against
every known instance, and the pairwise ablation matrix compares every pair:
``O(N*M)`` and ``O(N**2)`` signature alignments, each an ``O(64*64)`` edit
distance.  Production ssdeep deployments avoid this by exploiting a property
of the comparison itself: :meth:`repro.hashing.ssdeep.FuzzyHasher.compare`
returns a non-zero score only if

1. the two block sizes are equal or off by exactly a factor of two, and
2. the two signature strings that end up aligned share at least one 7-gram
   (``ROLLING_WINDOW`` characters) after run-length normalisation -- or the
   digests are identical at the same block size (the exact-100 fast path).

Both conditions can be indexed.  :class:`DigestIndex` stores, for every
digest, the 7-grams of its *chunk* part (``sig1``, computed at block size
``b``) under band ``b`` and the 7-grams of its *double-chunk* part (``sig2``,
computed at ``2b``) under band ``2b``.  A query digest then probes band ``b``
with its own chunk grams and band ``2b`` with its double-chunk grams, which by
construction reaches exactly the signature pairings ``compare`` would align:

========================  =============================  ==========
digest block sizes        signatures compared            band probed
========================  =============================  ==========
``b1 == b2``              ``sig1 x sig1, sig2 x sig2``   ``b1`` and ``2*b1``
``b1 == 2*b2``            ``sig1 x sig2``                ``b1``
``b2 == 2*b1``            ``sig2 x sig1``                ``2*b1``
========================  =============================  ==========

Digests whose normalised signatures are shorter than the n-gram length can
never share a 7-gram, but can still score 100 when byte-identical at the same
block size; a separate exact-signature table covers that path.  Together the
two tables guarantee **no false negatives**: every pair the index prunes is a
pair ``compare`` would have scored 0.  The candidate set is a superset of the
non-zero-scoring pairs, so an index-assisted search that assigns 0 to pruned
pairs without comparing them is *result-identical* to brute force -- see
``docs/architecture.md`` for the full argument and the property tests in
``tests/analysis/test_simindex.py`` for the executable version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hashing.compare_engine import (
    NGRAM,
    NormalizedDigest,
    normalize_digest,
    normalize_parsed,
    signature_grams,
)
from repro.hashing.rolling import ROLLING_WINDOW
from repro.hashing.ssdeep import FuzzyHash

#: Below this many instances a linear scan beats building and probing the
#: index for the Table 7 search, so searches fall back to brute force (which
#: is result-identical anyway).  Host-measured on the edit-compile-run record
#: set: ``identify_unknown(top=10)`` indexed / brute is x1.41 at 30 instances,
#: x1.04 at 80, x1.00 at 95, x0.95 at 100, x0.86 at 120 (the curve is in
#: docs/architecture.md, "Host-measured crossovers").
DEFAULT_INDEX_THRESHOLD = 96


@dataclass
class IndexStats:
    """Counters describing one index and the queries it served."""

    digests: int = 0
    grams: int = 0
    exact_keys: int = 0
    queries: int = 0
    candidates_returned: int = 0
    pairs_pruned: int = 0

    def merged_with(self, other: "IndexStats") -> "IndexStats":
        return IndexStats(
            digests=self.digests + other.digests,
            grams=self.grams + other.grams,
            exact_keys=self.exact_keys + other.exact_keys,
            queries=self.queries + other.queries,
            candidates_returned=self.candidates_returned + other.candidates_returned,
            pairs_pruned=self.pairs_pruned + other.pairs_pruned,
        )


class DigestIndex:
    """Inverted 7-gram index over one collection of CTPH digests.

    Digests are registered under integer ids chosen by the caller (typically
    positions in an instance list).  :meth:`candidates` returns the ids of
    every registered digest that could score non-zero against the query --
    never fewer (no false negatives), usually far fewer than all of them.

    Block size, normalised signatures and gram sets come from
    :func:`~repro.hashing.compare_engine.normalize_digest`, the cache the
    comparer fills anyway, so index and comparer share one normalisation by
    construction; posting lists hold *distinct* digests, each of which knows
    the ids registered under it, so a column carrying two values across a
    thousand instances inserts its grams twice.
    """

    def __init__(self, ngram: int = ROLLING_WINDOW) -> None:
        if ngram < 2:
            raise ValueError("ngram must be >= 2")
        self.ngram = ngram
        # Distinct digest -> its number; number -> ids registered under it.
        self._numbers: dict[FuzzyHash | str, int] = {}
        self._members: list[set[int]] = []
        # band block size -> gram -> numbers of the digests carrying that gram.
        self._grams: dict[int, dict[str, list[int]]] = {}
        # (block size, sig1, sig2) -> numbers, for the exact-100 path of
        # digests whose signatures are too short to produce any gram.
        self._exact: dict[tuple[int, str, str], set[int]] = {}
        self._size = 0
        self.stats = IndexStats()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, digest_id: int, digest: FuzzyHash | str) -> bool:
        """Index one digest under ``digest_id``.

        Returns ``False`` (and indexes nothing) for empty/unparseable digests;
        such digests always compare to 0, so leaving them out preserves the
        no-false-negative guarantee.
        """
        number = self._numbers.get(digest)
        if number is None:
            parsed = self._normalized(digest)
            if parsed is None:
                return False
            number = self._numbers[digest] = len(self._members)
            self._members.append(set())
            for band, grams in self._banded_grams(parsed):
                postings = self._grams.setdefault(band, {})
                for gram in grams:
                    bucket = postings.get(gram)
                    if bucket is None:
                        postings[gram] = [number]
                    else:
                        bucket.append(number)
            self.stats.grams = sum(map(len, self._grams.values()))
            if parsed.s1:
                # compare() returns 100 for equal-blocksize digests whose
                # normalised signatures match exactly (sig1 non-empty), even
                # when they are too short to share a 7-gram.
                self._exact.setdefault(
                    (parsed.block_size, parsed.s1, parsed.s2), set()).add(number)
            self.stats.exact_keys = len(self._exact)
        self._members[number].add(digest_id)
        self._size += 1
        self.stats.digests = self._size
        return True

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def candidates(self, digest: FuzzyHash | str) -> set[int]:
        """Ids of indexed digests that could score non-zero against ``digest``."""
        self.stats.queries += 1
        parsed = self._normalized(digest)
        if parsed is None:
            self.stats.pairs_pruned += self._size
            return set()
        numbers: set[int] = set()
        for band, grams in self._banded_grams(parsed):
            postings = self._grams.get(band, {})
            numbers.update(*[postings[gram] for gram in grams & postings.keys()])
        if parsed.s1:
            exact = self._exact.get((parsed.block_size, parsed.s1, parsed.s2))
            if exact:
                numbers |= exact
        found: set[int] = set().union(*[self._members[number] for number in numbers])
        self.stats.candidates_returned += len(found)
        self.stats.pairs_pruned += self._size - len(found)
        return found

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalized(digest: FuzzyHash | str) -> NormalizedDigest | None:
        if not digest:
            return None
        try:
            if isinstance(digest, str):
                return normalize_digest(digest)
            return normalize_parsed(digest.block_size, digest.sig1, digest.sig2)
        except ValueError:
            return None

    def _banded_grams(self, parsed: NormalizedDigest,
                      ) -> tuple[tuple[int, frozenset[str]], tuple[int, frozenset[str]]]:
        """The chunk part's grams under band ``b``, the double-chunk part's under ``2b``."""
        grams1, grams2 = parsed.grams1, parsed.grams2
        if self.ngram != NGRAM:
            grams1 = signature_grams(parsed.s1, self.ngram)
            grams2 = signature_grams(parsed.s2, self.ngram)
        return (parsed.block_size, grams1), (parsed.block_size * 2, grams2)


@dataclass
class SimilarityIndex:
    """Per-column :class:`DigestIndex` over a list of instance hash dicts.

    ``hash_rows`` is one dict per instance mapping a column name (``MO_H`` ...
    ``SY_H``) to its digest string; instance ids are list positions, so they
    line up with whatever instance list the caller keeps.
    """

    hash_rows: list[dict[str, str]]
    columns: tuple[str, ...]
    ngram: int = ROLLING_WINDOW
    _indexes: dict[str, DigestIndex] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._indexes = {column: DigestIndex(ngram=self.ngram) for column in self.columns}
        rows, self.hash_rows = self.hash_rows, []
        for hashes in rows:
            self.add(hashes)

    def __len__(self) -> int:
        return len(self.hash_rows)

    def add(self, hashes: dict[str, str]) -> int:
        """Append one instance's hash dict to the index; returns its new id.

        Ids keep being list positions, so an index grown one instance at a
        time is indistinguishable from one built over the full list -- the
        incremental path the live analysis layer uses instead of rebuilding
        (each :class:`DigestIndex` only ever accretes posting-list entries,
        so adding never invalidates earlier candidate sets).
        """
        digest_id = len(self.hash_rows)
        self.hash_rows.append(hashes)
        for column in self.columns:
            self._indexes[column].add(digest_id, hashes.get(column, ""))
        return digest_id

    def candidates(self, digest: FuzzyHash | str, column: str) -> set[int]:
        """Instance ids that could score non-zero on ``column`` against ``digest``."""
        return self._indexes[column].candidates(digest)

    def candidates_by_column(self, hashes: dict[str, str],
                             columns: tuple[str, ...] | None = None) -> dict[str, set[int]]:
        """Per-column candidate sets for a whole query instance."""
        selected = columns if columns is not None else self.columns
        return {column: self._indexes[column].candidates(hashes.get(column, ""))
                for column in selected}

    def stats(self) -> IndexStats:
        """Aggregated counters across all column indexes."""
        total = IndexStats()
        for index in self._indexes.values():
            total = total.merged_with(index.stats)
        return total
