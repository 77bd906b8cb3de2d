"""Tests for the inverted n-gram digest index and the index-assisted search.

The load-bearing property is *no false negatives*: every pair the index
prunes must be a pair ``FuzzyHasher.compare`` would have scored 0, so an
index-assisted search that skips pruned pairs is result-identical to brute
force.  The tests check that property three ways: on handcrafted digests
exercising each banding/fallback path, on randomised synthetic records, and
on real campaign data.
"""

from __future__ import annotations

import pytest

from repro.analysis import simindex
from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.analysis.simindex import DigestIndex
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.rng import SeededRNG

from oracles.search import on_brute_force, on_index

_HASHER = FuzzyHasher()
SIG = "ABCDEFGHIJKLMNOP"  # 16 chars -> plenty of 7-grams
OTHER = "qrstuvwxyz012345"


def _index(*digests: str) -> DigestIndex:
    index = DigestIndex()
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
        index = DigestIndex()
        assert index.add(0, "") is False
        assert index.add(1, "not a digest") is False
        assert index.add(2, f"24:{SIG}:{OTHER}") is True
        assert len(index) == 1

    def test_invalid_query_returns_no_candidates(self):
        index = _index(f"24:{SIG}:{OTHER}")
        assert index.candidates("") == set()
        assert index.candidates("garbage") == set()

    def test_stats_track_pruning(self):
        index = _index(f"24:{SIG}:{OTHER}", f"24:{OTHER}:{SIG}")
        index.candidates(f"24:{SIG}:zzzzzzzz")
        assert index.stats.digests == 2
        assert index.stats.queries == 1
        assert index.stats.candidates_returned + index.stats.pairs_pruned == 2


class TestCompletenessProperty:
    def test_every_pruned_pair_scores_zero(self):
        """Handcrafted pool spanning bands and signature shapes: the index may
        return false positives but never false negatives."""
        pool = [
            f"3:{SIG}:{OTHER}", f"6:{SIG}:{OTHER}", f"12:{OTHER}:{SIG}",
            f"24:{SIG}:{SIG}", f"48:{OTHER}:{OTHER}", f"96:{SIG}:{OTHER}",
            "3:ABC:DE", "3:ABC:DE", "6:ABC:DE", "3::", f"24:AAAAAAAA{SIG}:zz",
            f"12:AAAA{SIG}:zz",
        ]
        index = _index(*pool)
        for i, query in enumerate(pool):
            candidates = index.candidates(query)
            for j, other in enumerate(pool):
                if j not in candidates:
                    assert _HASHER.compare(query, other) == 0, (query, other)


def _record(executable: str, *, content: str, environment: str,
            uid: int = 1000) -> ProcessRecord:
    return ProcessRecord(
        jobid="1", stepid="0", pid=1, hash="h", host="n", time=0, uid=uid,
        executable=executable, category="user",
        modules_h=_HASHER.hash_text(environment + " modules"),
        compilers_h=_HASHER.hash_text(environment + " compilers"),
        objects_h=_HASHER.hash_text(environment + " objects"),
        file_h=_HASHER.hash_text(content + " file"),
        strings_h=_HASHER.hash_text(content + " strings"),
        symbols_h=_HASHER.hash_text(content + " symbols"),
    )


@pytest.fixture(scope="module")
def synthetic_records() -> list[ProcessRecord]:
    """~30 instances from seeded content families with random mutations."""
    rng = SeededRNG(42)
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


class TestIndexedSearchEquivalence:
    """Property-style: indexed and brute-force searches are result-identical."""

    def test_synthetic_query_rankings_identical_for_every_baseline(self, synthetic_records):
        search = SimilaritySearch(synthetic_records)
        assert on_index(lambda: search.indexed) and not on_brute_force(lambda: search.indexed)

        def rankings():
            return [search.query(instance, candidates=search.instances)
                    for instance in search.instances]

        assert on_brute_force(rankings) == on_index(rankings)

    def test_synthetic_identify_unknown_identical(self, synthetic_records):
        brute = SimilaritySearch(synthetic_records)
        indexed = SimilaritySearch(synthetic_records)
        assert on_brute_force(brute.identify_unknown, top=10) == \
            on_index(indexed.identify_unknown, top=10)
        assert indexed.comparisons <= brute.comparisons

    def test_campaign_identify_unknown_identical(self, campaign_records):
        brute = SimilaritySearch(campaign_records)
        indexed = SimilaritySearch(campaign_records)
        assert on_brute_force(brute.identify_unknown, top=10) == \
            on_index(indexed.identify_unknown, top=10)
        assert indexed.comparisons < brute.comparisons

    def test_campaign_pairwise_matrix_identical(self, campaign_records):
        for column in ("FI_H", "MO_H"):
            brute = SimilaritySearch(campaign_records)
            indexed = SimilaritySearch(campaign_records)
            assert on_brute_force(brute.pairwise_average_matrix, column) == \
                on_index(indexed.pairwise_average_matrix, column)
            assert indexed.comparisons <= brute.comparisons

    def test_unindexed_column_matches_brute_force(self, synthetic_records):
        """Columns the index does not cover score 0 on both paths, not crash."""
        search = SimilaritySearch(synthetic_records)
        columns = ("FI_H", "NOT_A_COLUMN")
        unknown = search.unknown_instances()[0]
        assert on_brute_force(search.query, unknown, columns=columns) == \
            on_index(search.query, unknown, columns=columns)
        assert on_brute_force(search.pairwise_average_matrix, "NOT_A_COLUMN") == \
            on_index(search.pairwise_average_matrix, "NOT_A_COLUMN")

    def test_campaign_query_with_column_subset_identical(self, campaign_records):
        search = SimilaritySearch(campaign_records)

        def answers():
            return [search.query(unknown, columns=("FI_H", "SY_H"))
                    for unknown in search.unknown_instances()]

        assert on_brute_force(answers) == on_index(answers)

    def test_index_stats_exposed(self, campaign_records):
        indexed = SimilaritySearch(campaign_records)
        on_index(indexed.identify_unknown, top=5)
        stats = on_index(indexed.index_stats)
        assert stats is not None
        assert stats.digests > 0 and stats.grams > 0
        assert stats.pairs_pruned > 0


class TestFallbacks:
    @pytest.fixture()
    def tiny_records(self) -> list[ProcessRecord]:
        return [
            _record("/p/u/one/app", content="first payload " * 40, environment="env-a " * 40),
            _record("/p/u/two/app", content="second payload " * 40, environment="env-a " * 40),
            _record("/p/u/three/a.out", content="first payload " * 40, environment="env-a " * 40),
        ]

    def test_small_dataset_falls_back_to_brute_force(self, tiny_records):
        search = SimilaritySearch(tiny_records)  # the shipped threshold
        assert len(search.instances) < simindex.DEFAULT_INDEX_THRESHOLD
        assert not search.indexed
        assert search.index_stats() is None
        # ... and still answers queries (via the brute-force path).
        assert search.identify_unknown(top=2)

    def test_forced_index_on_small_dataset_identical(self, tiny_records):
        search = SimilaritySearch(tiny_records)
        assert on_index(lambda: search.indexed)
        assert on_brute_force(search.identify_unknown) == on_index(search.identify_unknown)

    def test_maxsize_threshold_disables_index(self, tiny_records):
        search = SimilaritySearch(tiny_records)
        assert not on_brute_force(lambda: search.indexed)

    def test_external_baseline_and_candidates_supported(self, tiny_records):
        """Instances outside the built index are compared directly."""
        from repro.analysis.similarity import ExecutableInstance

        search = SimilaritySearch(tiny_records)
        external = ExecutableInstance(
            executable="/elsewhere/app", label="icon",
            hashes={column: _HASHER.hash_text("first payload " * 40 + " file")
                    for column in HASH_COLUMNS})
        unknown = search.unknown_instances()[0]
        assert on_index(search.query, unknown, candidates=[external]) == \
            on_brute_force(search.query, unknown, candidates=[external])
