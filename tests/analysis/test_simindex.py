"""Tests for the inverted n-gram digest index and the index-assisted search.

The load-bearing property is *no false negatives*: every pair the index
prunes must be a pair ``FuzzyHasher.compare`` would have scored 0, so an
index-assisted search that skips pruned pairs is result-identical to brute
force.  The tests check that property three ways: on handcrafted digests
exercising each banding/fallback path, on randomised synthetic records, and
on real campaign data.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.analysis.simindex import DigestIndex, SimilarityIndex
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher, compare, fuzzy_hash_text
from repro.util.rng import SeededRNG

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
        # compare(48:..., 24:...) aligns the 48-digest's chunk part with the
        # 24-digest's double-chunk part; the index must band them together.
        index = _index(f"24:{OTHER}:{SIG}")
        assert index.candidates(f"48:{SIG}:zzzzzzzz") == {0}

    def test_half_blocksize_double_chunk_meets_chunk(self):
        index = _index(f"48:{SIG}:{OTHER}")
        assert index.candidates(f"24:zzzzzzzz:{SIG}") == {0}

    def test_incompatible_blocksizes_pruned_even_with_identical_signatures(self):
        index = _index(f"12:{SIG}:{SIG}")
        assert index.candidates(f"48:{SIG}:{SIG}") == set()
        # ... which is sound because compare() also refuses the pair:
        assert compare(f"48:{SIG}:{SIG}", f"12:{SIG}:{SIG}") == 0

    def test_no_shared_gram_is_pruned(self):
        index = _index(f"24:{SIG}:{SIG}")
        assert index.candidates(f"24:{OTHER}:{OTHER}") == set()
        assert compare(f"24:{OTHER}:{OTHER}", f"24:{SIG}:{SIG}") == 0

    def test_sequence_elimination_applied_before_gramming(self):
        # "AAAAAAAA..." collapses to "AAA..." on both sides of compare(); the
        # index grams the collapsed form, so differing run lengths still meet.
        index = _index(f"24:AAAAAAAA{SIG}:{OTHER}")
        assert index.candidates(f"24:AAAA{SIG}:zzzzzzzz") == {0}


class TestDigestIndexExactPath:
    def test_short_identical_signatures_are_candidates(self):
        # Too short for any 7-gram, but compare() == 100 for identical
        # digests at the same block size -- the exact table must catch it.
        index = _index("3:ABC:DE")
        assert index.candidates("3:ABC:DE") == {0}
        assert compare("3:ABC:DE", "3:ABC:DE") == 100

    def test_short_differing_signatures_pruned(self):
        index = _index("3:ABC:DE")
        assert index.candidates("3:ABD:DE") == set()
        assert compare("3:ABD:DE", "3:ABC:DE") == 0

    def test_short_identical_signatures_different_blocksize_pruned(self):
        index = _index("3:ABC:DE")
        assert index.candidates("6:ABC:DE") == set()
        assert compare("6:ABC:DE", "3:ABC:DE") == 0

    def test_empty_signature_never_matches(self):
        index = _index("3::")
        assert index.candidates("3::") == set()
        assert compare("3::", "3::") == 0


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

    def test_ngram_validation(self):
        with pytest.raises(ValueError):
            DigestIndex(ngram=1)

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
                    assert compare(query, other) == 0, (query, other)


def _record(executable: str, *, content: str, environment: str,
            uid: int = 1000) -> ProcessRecord:
    return ProcessRecord(
        jobid="1", stepid="0", pid=1, hash="h", host="n", time=0, uid=uid,
        executable=executable, category="user",
        modules_h=fuzzy_hash_text(environment + " modules"),
        compilers_h=fuzzy_hash_text(environment + " compilers"),
        objects_h=fuzzy_hash_text(environment + " objects"),
        file_h=fuzzy_hash_text(content + " file"),
        strings_h=fuzzy_hash_text(content + " strings"),
        symbols_h=fuzzy_hash_text(content + " symbols"),
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
        brute = SimilaritySearch(synthetic_records, index_threshold=sys.maxsize)
        indexed = SimilaritySearch(synthetic_records, index_threshold=0)
        assert indexed.indexed and not brute.indexed
        for brute_instance, indexed_instance in zip(brute.instances, indexed.instances):
            assert brute.query(brute_instance, candidates=brute.instances) == \
                indexed.query(indexed_instance, candidates=indexed.instances)

    def test_synthetic_identify_unknown_identical(self, synthetic_records):
        brute = SimilaritySearch(synthetic_records, index_threshold=sys.maxsize)
        indexed = SimilaritySearch(synthetic_records, index_threshold=0)
        assert brute.identify_unknown(top=10) == indexed.identify_unknown(top=10)
        assert indexed.comparisons <= brute.comparisons

    def test_campaign_identify_unknown_identical(self, campaign_records):
        brute = SimilaritySearch(campaign_records, index_threshold=sys.maxsize)
        indexed = SimilaritySearch(campaign_records, index_threshold=0)
        assert brute.identify_unknown(top=10) == indexed.identify_unknown(top=10)
        assert indexed.comparisons < brute.comparisons

    def test_campaign_pairwise_matrix_identical(self, campaign_records):
        for column in ("FI_H", "MO_H"):
            brute = SimilaritySearch(campaign_records, index_threshold=sys.maxsize)
            indexed = SimilaritySearch(campaign_records, index_threshold=0)
            assert brute.pairwise_average_matrix(column) == \
                indexed.pairwise_average_matrix(column)
            assert indexed.comparisons <= brute.comparisons

    def test_unindexed_column_matches_brute_force(self, synthetic_records):
        """Columns the index does not cover score 0 on both paths, not crash."""
        brute = SimilaritySearch(synthetic_records, index_threshold=sys.maxsize)
        indexed = SimilaritySearch(synthetic_records, index_threshold=0)
        columns = ("FI_H", "NOT_A_COLUMN")
        unknown_b = brute.unknown_instances()[0]
        unknown_i = indexed.unknown_instances()[0]
        assert brute.query(unknown_b, columns=columns) == \
            indexed.query(unknown_i, columns=columns)
        assert brute.pairwise_average_matrix("NOT_A_COLUMN") == \
            indexed.pairwise_average_matrix("NOT_A_COLUMN")

    def test_campaign_query_with_column_subset_identical(self, campaign_records):
        brute = SimilaritySearch(campaign_records, index_threshold=sys.maxsize)
        indexed = SimilaritySearch(campaign_records, index_threshold=0)
        for unknown_b, unknown_i in zip(brute.unknown_instances(),
                                        indexed.unknown_instances()):
            assert brute.query(unknown_b, columns=("FI_H", "SY_H")) == \
                indexed.query(unknown_i, columns=("FI_H", "SY_H"))

    def test_index_stats_exposed(self, campaign_records):
        indexed = SimilaritySearch(campaign_records, index_threshold=0)
        indexed.identify_unknown(top=5)
        stats = indexed.index_stats()
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
        search = SimilaritySearch(tiny_records)  # default threshold
        assert len(search.instances) < search.index_threshold
        assert not search.indexed
        assert search.index_stats() is None
        # ... and still answers queries (via the brute-force path).
        assert search.identify_unknown(top=2)

    def test_forced_index_on_small_dataset_identical(self, tiny_records):
        brute = SimilaritySearch(tiny_records, index_threshold=sys.maxsize)
        forced = SimilaritySearch(tiny_records, index_threshold=0)
        assert forced.indexed
        assert brute.identify_unknown() == forced.identify_unknown()

    def test_non_default_hasher_disables_index(self, tiny_records):
        loose = FuzzyHasher(require_common_substring=False)
        search = SimilaritySearch(tiny_records, hasher=loose,
                                  index_threshold=0)
        assert not search.indexed  # pruning guarantee void without the 7-gram gate

    def test_maxsize_threshold_disables_index(self, tiny_records):
        search = SimilaritySearch(tiny_records, index_threshold=sys.maxsize)
        assert not search.indexed

    def test_external_baseline_and_candidates_supported(self, tiny_records):
        """Instances outside the built index are compared directly."""
        from repro.analysis.similarity import ExecutableInstance

        search = SimilaritySearch(tiny_records, index_threshold=0)
        external = ExecutableInstance(
            executable="/elsewhere/app", label="icon",
            hashes={column: fuzzy_hash_text("first payload " * 40 + " file")
                    for column in HASH_COLUMNS})
        unknown = search.unknown_instances()[0]
        indexed_scores = search.query(unknown, candidates=[external])
        brute = SimilaritySearch(tiny_records, index_threshold=sys.maxsize)
        brute_scores = brute.query(brute.unknown_instances()[0], candidates=[external])
        assert indexed_scores == brute_scores
