"""Tests for the similarity search (Table 7) and report rendering."""

from dataclasses import replace

import pytest

from repro.analysis import report
from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import AnalysisError

from oracles.compare import compare_reference
from oracles.search import reference_matrix, reference_query

_HASHER = FuzzyHasher()


def _record(executable: str, *, content_tag: str, env_tag: str = "env-a",
            category: str = "user", uid: int = 1000) -> ProcessRecord:
    """Build a user record whose six hashes are derived from two tags."""
    content = f"{content_tag} " * 120
    environment = f"{env_tag} " * 80
    return ProcessRecord(
        jobid="1", stepid="0", pid=1, hash="h", host="n", time=0, uid=uid,
        executable=executable, category=category,
        modules_h=_HASHER.hash((environment + "modules").encode()),
        compilers_h=_HASHER.hash((environment + "compilers").encode()),
        objects_h=_HASHER.hash((environment + "objects").encode()),
        file_h=_HASHER.hash((content + "file").encode()),
        strings_h=_HASHER.hash((content + "strings").encode()),
        symbols_h=_HASHER.hash((content + "symbols").encode()),
    )


def _sparse(record: ProcessRecord) -> ProcessRecord:
    """``record`` at another path with every hash but the file hash missing."""
    return replace(record, executable=record.executable + ".sparse", modules_h="",
                   compilers_h="", objects_h="", strings_h="", symbols_h="")


@pytest.fixture()
def records() -> list[ProcessRecord]:
    return [
        _record("/p/u/icon-model/bin-a/icon", content_tag="icon release one"),
        _record("/p/u/icon-model/bin-b/icon", content_tag="icon release one patched lightly"),
        _record("/p/u/lammps/bin/lmp", content_tag="completely different lammps payload",
                env_tag="env-b"),
        # The unknown instance: identical content to bin-a, same environment.
        _record("/scratch/p/u/exp_042/a.out", content_tag="icon release one"),
    ]


class TestInstanceIndex:
    def test_instances_built_per_path(self, records):
        search = SimilaritySearch(records)
        assert len(search.instances) == 4

    def test_duplicate_records_merge_by_path(self, records):
        search = SimilaritySearch(records + [records[0]])
        assert len(search.instances) == 4
        merged = [i for i in search.instances if i.executable == records[0].executable][0]
        assert merged.process_count == 2

    def test_unknown_and_labelled_partition(self, records):
        search = SimilaritySearch(records)
        assert {i.executable for i in search.unknown_instances()} == {
            "/scratch/p/u/exp_042/a.out"}
        assert len(search.labelled_instances()) == 3

    def test_system_records_ignored(self, records):
        extra = _record("/usr/bin/bash", content_tag="bash", category="system")
        assert len(SimilaritySearch(records + [extra]).instances) == 4

    def test_records_without_file_hash_ignored(self, records):
        nohash = ProcessRecord(jobid="1", stepid="0", pid=2, hash="h", host="n", time=0,
                               uid=1000, executable="/p/u/x", category="user")
        assert len(SimilaritySearch(records + [nohash]).instances) == 4


class TestQueries:
    def test_identical_content_and_env_scores_100(self, records):
        search = SimilaritySearch(records)
        unknown = search.unknown_instances()[0]
        (best,) = search.query(unknown, top=1)
        assert best.label == "icon"
        assert best.average == 100.0
        assert all(best.scores[column] == 100 for column in HASH_COLUMNS)

    def test_ranking_prefers_similar_variant_over_unrelated(self, records):
        search = SimilaritySearch(records)
        unknown = search.unknown_instances()[0]
        ranked = search.query(unknown)
        assert [result.label for result in ranked[:2]] == ["icon", "icon"]
        assert ranked[0].average >= ranked[1].average > ranked[-1].average

    def test_identify_unknown_returns_per_baseline_results(self, records):
        searches = SimilaritySearch(records).identify_unknown(top=2)
        assert set(searches) == {"/scratch/p/u/exp_042/a.out"}
        assert len(searches["/scratch/p/u/exp_042/a.out"]) == 2

    def test_identify_unknown_without_unknowns_raises(self, records):
        with pytest.raises(AnalysisError):
            SimilaritySearch(records[:3]).identify_unknown()

    def test_query_with_custom_columns(self, records):
        search = SimilaritySearch(records)
        unknown = search.unknown_instances()[0]
        ranked = search.query(unknown, columns=("FI_H",))
        assert set(ranked[0].scores) == {"FI_H"}

    @pytest.mark.parametrize("sparse_first", [False, True],
                             ids=["sparse-second", "sparse-first"])
    def test_pairwise_matrix_scores_a_missing_hash_0(self, records, sparse_first):
        """An instance with only a file hash scores 0 against every other on
        each of its missing columns, whichever side of the pair it is on,
        without a counted comparison."""
        pair = [records[0], _sparse(records[3])]
        search = SimilaritySearch(pair[::-1] if sparse_first else pair)
        for column in HASH_COLUMNS[:3] + HASH_COLUMNS[4:]:
            matrix = search.pairwise_average_matrix(column)
            assert matrix == [[100, 0], [0, 100]]
        assert search.comparisons == 0

    def test_pairwise_matrix_shape_and_diagonal(self, records):
        search = SimilaritySearch(records)
        matrix = search.pairwise_average_matrix("FI_H")
        size = len(search.instances)
        assert len(matrix) == size and all(len(row) == size for row in matrix)
        assert all(matrix[i][i] == 100 for i in range(size))
        assert matrix[0][1] == matrix[1][0]

    def test_pairwise_matrix_counter_and_cache_skip_missing_digests(self, records):
        """Missing digests score their 0 for free, exactly as ``query`` does.

        Regression test: the matrix used to substitute a ``"3::"``
        placeholder, count a comparison for it, and plant the placeholder
        pair in the shared compare LRU -- diverging from the
        ``_compare_digests`` semantics every other path shares.
        """
        # Four instances, two of which never produced a MAPS_H-like digest:
        # clear MO_H on two records so missing-digest pairs exist.
        sparse = [
            records[0],
            records[1],
            replace(records[2], modules_h=""),
            replace(records[3], modules_h=""),
        ]
        search = SimilaritySearch(sparse)
        assert search.comparisons == 0
        matrix = search.pairwise_average_matrix("MO_H")
        # Only the single pair with both digests present was compared ...
        assert search.comparisons == 1
        # ... it missed the (cold) cache exactly once, and no placeholder
        # pair was ever planted in the LRU.
        info = search.hasher.compare_cache_info()
        assert info.misses == 1
        assert info.currsize == 1
        # and the scores are unchanged: missing pairs are 0, diagonal 100.
        assert matrix[2][3] == matrix[0][2] == 0
        assert all(matrix[i][i] == 100 for i in range(4))
        assert matrix == reference_matrix(search.instances, "MO_H")

    def test_result_row_format(self, records):
        search = SimilaritySearch(records)
        (result,) = search.query(search.unknown_instances()[0], top=1)
        row = result.as_row()
        assert row[0] == "icon"
        assert len(row) == 2 + len(HASH_COLUMNS)


class _ReferenceHasher(FuzzyHasher):
    """Scores every pair through the scalar oracle, ``compare_reference``."""

    def compare(self, first, second):
        return compare_reference(first, second)

    def compare_pairs(self, pairs):
        return [compare_reference(first, second) for first, second in pairs]


class TestCompareEngineAgainstReference:
    """Whole searches on the bit-parallel engine against the seed scalar path."""

    def _searches(self, records):
        return (SimilaritySearch(records),
                SimilaritySearch(records, hasher=_ReferenceHasher()))

    def test_identify_unknown_identical_to_reference(self, records):
        bit, ref = self._searches(records)
        assert bit.identify_unknown(top=10) == ref.identify_unknown(top=10)
        assert bit.comparisons == ref.comparisons

    def test_pairwise_matrix_identical_to_reference(self, records):
        """The recognition graph's scores: every column, an instance with
        missing hashes included."""
        records = [*records, _sparse(records[2])]
        bit, ref = self._searches(records)
        for column in HASH_COLUMNS:
            assert bit.pairwise_average_matrix(column) == \
                ref.pairwise_average_matrix(column)
        assert bit.comparisons == ref.comparisons

    def test_query_counter_matches_scalar_path(self, records):
        bit, ref = self._searches(records)
        unknown = bit.unknown_instances()[0]
        assert bit.query(unknown) == ref.query(unknown) == \
            reference_query(unknown, bit.labelled_instances())
        assert bit.comparisons == ref.comparisons
        info = bit.hasher.compare_cache_info()
        # Every unique non-empty pair was scored once and cached.
        assert info.misses == info.currsize


class TestReportRendering:
    def test_render_similarity(self, records):
        search = SimilaritySearch(records)
        results = search.query(search.unknown_instances()[0], top=3)
        rendered = report.render_similarity(results)
        assert "Avg. Sim." in rendered
        assert "icon" in rendered

    def test_render_all_section_helpers_smoke(self, pipeline):
        """Every render helper produces a non-empty table on real campaign data."""
        assert "Table 2" in report.render_user_activity(pipeline.table2_user_activity())
        assert "Table 3" in report.render_system_executables(pipeline.table3_system_executables())
        assert "Table 5" in report.render_labels(pipeline.table5_user_applications())
        assert "Table 6" in report.render_compiler_combinations(pipeline.table6_compilers())
        assert "Table 8" in report.render_python_interpreters(pipeline.table8_python_interpreters())
        assert "Figure 2" in report.render_library_usage(pipeline.figure2_library_usage())
        assert "Figure 3" in report.render_python_packages(pipeline.figure3_python_packages())
