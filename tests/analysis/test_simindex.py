"""Tests for the inverted n-gram gate and the gated search.

The load-bearing property is *no false negatives*: every pair the gate
prunes must be a pair ``FuzzyHasher.compare`` would have scored 0, so a
search that skips pruned pairs is result-identical to comparing every pair.
The tests check that property three ways: on handcrafted digests exercising
each banding/fallback path, on randomised synthetic records, and on real
campaign data -- the last two against the all-pairs reference of
``oracles/search.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.similarity import HASH_COLUMNS, ExecutableInstance, SimilaritySearch
from repro.analysis.simindex import DigestIndex
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher

from oracles.search import reference_identify, reference_matrix, reference_query

_HASHER = FuzzyHasher()
SIG = "ABCDEFGHIJKLMNOP"  # 16 chars -> plenty of 7-grams
OTHER = "qrstuvwxyz012345"


class _Index(DigestIndex):
    """A gate whose ``candidates`` answers with the set of ids, not their bitmask."""

    def candidates(self, digest: str) -> set[int]:  # type: ignore[override]
        mask = super().candidates(digest)
        return {digest_id for digest_id in range(mask.bit_length()) if mask >> digest_id & 1}


def _index(*digests: str) -> _Index:
    index = _Index()
    for digest_id, digest in enumerate(digests):
        index.add(digest_id, digest)
    return index


class TestDigestIndexBanding:
    def test_same_blocksize_shared_gram_is_candidate(self):
        index = _index(f"24:{SIG}:{OTHER}")
        assert index.candidates(f"24:{SIG}:zzzzzzzz") == {0}

    def test_double_blocksize_chunk_meets_double_chunk(self):
        # _HASHER.compare(48:..., 24:...) aligns the 48-digest's chunk part with the
        # 24-digest's double-chunk part; the index must band them together.
        index = _index(f"24:{OTHER}:{SIG}")
        assert index.candidates(f"48:{SIG}:zzzzzzzz") == {0}

    def test_half_blocksize_double_chunk_meets_chunk(self):
        index = _index(f"48:{SIG}:{OTHER}")
        assert index.candidates(f"24:zzzzzzzz:{SIG}") == {0}

    def test_incompatible_blocksizes_pruned_even_with_identical_signatures(self):
        index = _index(f"12:{SIG}:{SIG}")
        assert index.candidates(f"48:{SIG}:{SIG}") == set()
        # ... which is sound because _HASHER.compare() also refuses the pair:
        assert _HASHER.compare(f"48:{SIG}:{SIG}", f"12:{SIG}:{SIG}") == 0

    def test_no_shared_gram_is_pruned(self):
        index = _index(f"24:{SIG}:{SIG}")
        assert index.candidates(f"24:{OTHER}:{OTHER}") == set()
        assert _HASHER.compare(f"24:{OTHER}:{OTHER}", f"24:{SIG}:{SIG}") == 0

    def test_sequence_elimination_applied_before_gramming(self):
        # "AAAAAAAA..." collapses to "AAA..." on both sides of _HASHER.compare(); the
        # index grams the collapsed form, so differing run lengths still meet.
        index = _index(f"24:AAAAAAAA{SIG}:{OTHER}")
        assert index.candidates(f"24:AAAA{SIG}:zzzzzzzz") == {0}


class TestDigestIndexExactPath:
    def test_short_identical_signatures_are_candidates(self):
        # Too short for any 7-gram, but _HASHER.compare() == 100 for identical
        # digests at the same block size -- the exact table must catch it.
        index = _index("3:ABC:DE")
        assert index.candidates("3:ABC:DE") == {0}
        assert _HASHER.compare("3:ABC:DE", "3:ABC:DE") == 100

    def test_short_differing_signatures_pruned(self):
        index = _index("3:ABC:DE")
        assert index.candidates("3:ABD:DE") == set()
        assert _HASHER.compare("3:ABD:DE", "3:ABC:DE") == 0

    def test_short_identical_signatures_different_blocksize_pruned(self):
        index = _index("3:ABC:DE")
        assert index.candidates("6:ABC:DE") == set()
        assert _HASHER.compare("6:ABC:DE", "3:ABC:DE") == 0

    def test_empty_signature_never_matches(self):
        index = _index("3::")
        assert index.candidates("3::") == set()
        assert _HASHER.compare("3::", "3::") == 0


class TestDigestIndexInput:
    def test_empty_and_invalid_digests_not_indexed(self):
        index = _Index()
        assert index.add(0, "") is False
        assert index.add(1, "not a digest") is False
        assert index.add(2, f"24:{SIG}:{OTHER}") is True
        assert index.stats.digests == 1
        assert index.candidates(f"24:{SIG}:{OTHER}") == {2}

    def test_invalid_query_returns_no_candidates(self):
        index = _index(f"24:{SIG}:{OTHER}")
        assert index.candidates("") == set()
        assert index.candidates("garbage") == set()

    def test_stats_count_registrations_and_probes(self):
        index = _index(f"24:{SIG}:{OTHER}", f"24:{OTHER}:{SIG}")
        index.candidates(f"24:{SIG}:zzzzzzzz")
        assert index.stats.digests == 2
        assert index.stats.grams == 4 * (len(SIG) - 6)
        assert index.stats.queries == 1


#: A handcrafted pool spanning bands and signature shapes.
_POOL = [
    f"3:{SIG}:{OTHER}", f"6:{SIG}:{OTHER}", f"12:{OTHER}:{SIG}",
    f"24:{SIG}:{SIG}", f"48:{OTHER}:{OTHER}", f"96:{SIG}:{OTHER}",
    "3:ABC:DE", "3:ABC:DE", "6:ABC:DE", "3::", f"24:AAAAAAAA{SIG}:zz",
    f"12:AAAA{SIG}:zz", "", "24:truncated",
]


class TestCompletenessProperty:
    def test_every_pruned_pair_scores_zero(self):
        """Handcrafted pool spanning bands and signature shapes: the index may
        return false positives but never false negatives."""
        index = _index(*_POOL)
        for i, query in enumerate(_POOL):
            candidates = index.candidates(query)
            for j, other in enumerate(_POOL):
                if j not in candidates:
                    assert _HASHER.compare(query, other) == 0, (query, other)

    def test_the_pass_condition_is_symmetric(self):
        """The search registers baselines and probes with the pool: it passes a
        pair exactly when registering the pool and probing with the baseline
        would, so which side is registered cannot change an answer."""
        for first in _POOL:
            for second in _POOL:
                assert _index(first).candidates(second) == \
                    _index(second).candidates(first), (first, second)


def _record(executable: str, *, content: str, environment: str,
            uid: int = 1000) -> ProcessRecord:
    return ProcessRecord(
        jobid="1", stepid="0", pid=1, hash="h", host="n", time=0, uid=uid,
        executable=executable, category="user",
        modules_h=_HASHER.hash((environment + " modules").encode()),
        compilers_h=_HASHER.hash((environment + " compilers").encode()),
        objects_h=_HASHER.hash((environment + " objects").encode()),
        file_h=_HASHER.hash((content + " file").encode()),
        strings_h=_HASHER.hash((content + " strings").encode()),
        symbols_h=_HASHER.hash((content + " symbols").encode()),
    )


@pytest.fixture(scope="module")
def synthetic_records() -> list[ProcessRecord]:
    """~30 instances from seeded content families with random mutations."""
    rng = random.Random(42)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    records: list[ProcessRecord] = []
    for family in range(6):
        base = [rng.choice(words) for _ in range(150)]
        environment = f"env-{family % 3} " * 60
        for variant in range(5):
            content = list(base)
            for _ in range(rng.randint(0, 30 * variant)):
                content[rng.randint(0, len(content) - 1)] = rng.choice(words)
            name = "a.out" if family == 0 and variant == 4 else f"app{family}"
            records.append(_record(
                f"/proj/u/fam{family}/v{variant}/{name}",
                content=" ".join(content), environment=environment))
    return records


class TestGatedSearchEquivalence:
    """Property-style: the gated search equals the all-pairs reference."""

    def test_synthetic_query_rankings_identical_for_every_baseline(self, synthetic_records):
        search = SimilaritySearch(synthetic_records)
        for instance in search.instances:
            assert search.query(instance, candidates=search.instances) == \
                reference_query(instance, search.instances)

    def test_synthetic_identify_unknown_identical(self, synthetic_records):
        search = SimilaritySearch(synthetic_records)
        assert search.identify_unknown(top=10) == \
            reference_identify(search.instances, top=10)
        assert search.index_stats().candidates_returned == search.comparisons

    def test_campaign_identify_unknown_identical(self, campaign_records):
        search = SimilaritySearch(campaign_records)
        assert search.identify_unknown(top=10) == \
            reference_identify(search.instances, top=10)
        unknowns = len(search.unknown_instances())
        labelled = len(search.labelled_instances())
        assert search.comparisons < unknowns * labelled * len(HASH_COLUMNS)

    def test_campaign_pairwise_matrix_identical(self, campaign_records):
        search = SimilaritySearch(campaign_records)
        size = len(search.instances)
        for column in ("FI_H", "MO_H"):
            before = search.comparisons
            assert search.pairwise_average_matrix(column) == \
                reference_matrix(search.instances, column)
            assert search.comparisons - before <= size * (size - 1) // 2

    def test_a_matrix_scores_each_distinct_pair_once(self, campaign_records):
        """The matrix's baselines are its pool: each unordered pair of distinct
        digests is aligned once, and a digest against itself only when two
        instances carry it, so a fresh search's compare LRU never hits."""
        search = SimilaritySearch(campaign_records)
        for column in HASH_COLUMNS:
            search.pairwise_average_matrix(column)
        info = search.hasher.compare_cache_info()
        assert info.hits == 0 and info.misses > 0

    def test_unindexed_column_scores_zero(self, synthetic_records):
        """Columns outside HASH_COLUMNS score 0, as comparing their missing digests would."""
        search = SimilaritySearch(synthetic_records)
        columns = ("FI_H", "NOT_A_COLUMN")
        unknown = search.unknown_instances()[0]
        assert search.query(unknown, columns=columns) == \
            reference_query(unknown, search.labelled_instances(), columns=columns)
        assert search.pairwise_average_matrix("NOT_A_COLUMN") == \
            reference_matrix(search.instances, "NOT_A_COLUMN")

    def test_campaign_query_with_column_subset_identical(self, campaign_records):
        search = SimilaritySearch(campaign_records)
        for unknown in search.unknown_instances():
            assert search.query(unknown, columns=("FI_H", "SY_H")) == \
                reference_query(unknown, search.labelled_instances(),
                                columns=("FI_H", "SY_H"))

    def test_index_stats_exposed(self, campaign_records):
        search = SimilaritySearch(campaign_records)
        search.identify_unknown(top=5)
        stats = search.index_stats()
        assert stats.digests > 0 and stats.grams > 0 and stats.queries > 0
        assert stats.pairs_pruned > 0
        assert stats.candidates_returned + stats.pairs_pruned == \
            len(search.unknown_instances()) * len(search.labelled_instances()) \
            * len(HASH_COLUMNS)
        stats.pairs_pruned = 0                   # a copy: the search's own is untouched
        assert search.index_stats().pairs_pruned > 0


class TestSmallPools:
    @pytest.fixture()
    def tiny_records(self) -> list[ProcessRecord]:
        return [
            _record("/p/u/one/icon", content="first payload " * 40, environment="env-a " * 40),
            _record("/p/u/two/lmp", content="second payload " * 40, environment="env-a " * 40),
            _record("/p/u/three/a.out", content="first payload " * 40, environment="env-a " * 40),
        ]

    def test_a_three_instance_pool_is_gated_too(self, tiny_records):
        search = SimilaritySearch(tiny_records)
        assert search.index_stats().queries == 0          # nothing asked yet
        assert search.identify_unknown(top=2) == \
            reference_identify(search.instances, top=2)
        stats = search.index_stats()
        # one unknown's six digests; MO/CO/OB shared by both labelled apps
        assert (stats.digests, stats.queries) == (6, 3 + 3 * 2)
        assert stats.candidates_returned + stats.pairs_pruned == 2 * len(HASH_COLUMNS)

    def test_default_top_identical(self, tiny_records):
        search = SimilaritySearch(tiny_records)
        assert search.identify_unknown() == reference_identify(search.instances)

    def test_external_baseline_and_candidates_supported(self, tiny_records):
        """Instances outside the search's list are gated like its own."""
        search = SimilaritySearch(tiny_records)
        external = ExecutableInstance(
            executable="/elsewhere/app", label="icon",
            hashes={column: _HASHER.hash(("first payload " * 40 + " file").encode())
                    for column in HASH_COLUMNS})
        unknown = search.unknown_instances()[0]
        assert search.query(unknown, candidates=[external]) == \
            reference_query(unknown, [external])
        assert search.query(external, candidates=search.instances) == \
            reference_query(external, search.instances)
