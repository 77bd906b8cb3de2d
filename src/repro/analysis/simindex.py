"""Inverted n-gram gate over CTPH digests -- candidate pruning for Table 7.

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
registered digest, the 7-grams of its *chunk* part (``sig1``, computed at
block size ``b``) under band ``b`` and the 7-grams of its *double-chunk* part
(``sig2``, computed at ``2b``) under band ``2b``.  A probing digest then looks
up band ``b`` with its own chunk grams and band ``2b`` with its double-chunk
grams, which by construction reaches exactly the signature pairings
``compare`` would align:

========================  =============================  ==========
digest block sizes        signatures compared            band probed
========================  =============================  ==========
``b1 == b2``              ``sig1 x sig1, sig2 x sig2``   ``b1`` and ``2*b1``
``b1 == 2*b2``            ``sig1 x sig2``                ``b1``
``b2 == 2*b1``            ``sig2 x sig1``                ``2*b1``
========================  =============================  ==========

The condition is symmetric -- swapping which digest is registered and which
probes swaps the table's rows, not its answer -- so the search registers the
side with fewer digests (the baselines) and probes with the other.

Digests whose normalised signatures are shorter than the n-gram length can
never share a 7-gram, but can still score 100 when byte-identical at the same
block size; a separate exact-signature table covers that path.  Together the
two tables guarantee **no false negatives**: every pair the gate prunes is a
pair ``compare`` would have scored 0, so a search that assigns 0 to pruned
pairs without comparing them is *result-identical* to comparing every pair --
see ``docs/architecture.md`` for the full argument and the property tests in
``tests/analysis/test_simindex.py`` for the executable version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hashing.compare_engine import NormalizedDigest, normalize_digest


@dataclass
class IndexStats:
    """Counters of the gates a search built and the pairs they passed."""

    #: baseline digests registered (one per distinct digest, column and gate)
    digests: int = 0
    #: gram insertions those registrations made
    grams: int = 0
    #: gate probes (one per distinct pool digest, column and gate)
    queries: int = 0
    #: (baseline, pool instance) pairs the gate passed on to the comparer
    candidates_returned: int = 0
    #: (baseline, pool instance) pairs scored 0 without a comparison
    pairs_pruned: int = 0


@dataclass
class DigestIndex:
    """Inverted 7-gram gate over one column's baseline digests.

    Digests are registered under small integer ids chosen by the caller (a
    position in its list of distinct baseline digests); :meth:`candidates`
    answers with the bitmask of every registered id that could score
    non-zero against the probing digest -- never fewer (no false negatives),
    usually far fewer than all of them.

    Block size, normalised signatures and gram sets come from
    :func:`~repro.hashing.compare_engine.normalize_digest`, the cache the
    comparer fills anyway, so gate and comparer share one normalisation by
    construction.  Registrations and probes are counted into ``stats``,
    which a search shares across the gates it builds.
    """

    stats: IndexStats = field(default_factory=IndexStats)
    #: band block size -> gram -> bitmask of the ids carrying that gram
    _grams: dict[int, dict[str, int]] = field(init=False, default_factory=dict, repr=False)
    #: (block size, sig1, sig2) -> bitmask, for the exact-100 path of digests
    #: whose signatures are too short to produce any gram
    _exact: dict[tuple[int, str, str], int] = field(init=False, default_factory=dict,
                                                    repr=False)

    def add(self, digest_id: int, digest: str) -> bool:
        """Register ``digest`` under ``digest_id``.

        Returns ``False`` (and registers nothing) for a digest
        :func:`~repro.hashing.compare_engine.normalize_digest` does not parse
        (empty ones included); such digests always compare to 0, so leaving
        them out preserves the no-false-negative guarantee.
        """
        parsed = normalize_digest(digest)
        if parsed is None:
            return False
        bit = 1 << digest_id
        for band, grams in _banded_grams(parsed):
            table = self._grams.setdefault(band, {})
            for gram in grams:
                table[gram] = table.get(gram, 0) | bit
            self.stats.grams += len(grams)
        if parsed.s1:
            # compare() returns 100 for equal-blocksize digests whose
            # normalised signatures match exactly (sig1 non-empty), even
            # when they are too short to share a 7-gram.
            key = (parsed.block_size, parsed.s1, parsed.s2)
            self._exact[key] = self._exact.get(key, 0) | bit
        self.stats.digests += 1
        return True

    def candidates(self, digest: str) -> int:
        """Bitmask of the registered ids that could score non-zero against ``digest``."""
        self.stats.queries += 1
        parsed = normalize_digest(digest)
        if parsed is None:
            return 0
        # The bands of ``_banded_grams``, written out: this is the per-probe loop.
        mask = 0
        table = self._grams.get(parsed.block_size)
        if table:
            for gram in parsed.grams1 & table.keys():
                mask |= table[gram]
        table = self._grams.get(parsed.block_size * 2)
        if table:
            for gram in parsed.grams2 & table.keys():
                mask |= table[gram]
        if parsed.s1:
            mask |= self._exact.get((parsed.block_size, parsed.s1, parsed.s2), 0)
        return mask


def _banded_grams(parsed: NormalizedDigest,
                  ) -> tuple[tuple[int, frozenset[str]], tuple[int, frozenset[str]]]:
    """The chunk part's grams under band ``b``, the double-chunk part's under ``2b``."""
    return (parsed.block_size, parsed.grams1), (parsed.block_size * 2, parsed.grams2)
