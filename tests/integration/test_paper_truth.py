"""Tables 5-7 and Figures 2-5 against the corpus's truth.

One lossless campaign of every profile at scale 0.01 runs once, its launches
watched by :class:`~oracles.truth.CorpusTruth`; each test compares one table
or figure of :class:`~repro.core.AnalysisPipeline` with what the corpus
installed and what really ran.  The paper's qualitative claims about the same
tables are in ``test_paper_claims.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis.compilers import record_compiler_labels
from repro.analysis.labels import UNKNOWN_LABEL, label_by_executable
from repro.analysis.matrices import UsageMatrix
from repro.collector.classify import ExecutableCategory
from repro.core import AnalysisPipeline
from repro.workload import CampaignConfig, DeploymentCampaign

from oracles.truth import CorpusTruth

ORACLES = Path(__file__).resolve().parents[1] / "oracles"


@dataclass(frozen=True, repr=False)    # a failed assertion must not print the records
class TruthCampaign:
    pipeline: AnalysisPipeline
    truth: CorpusTruth


@pytest.fixture(scope="module")
def observed() -> TruthCampaign:
    """The lossless seed-2025 scale-0.01 campaign, its launches watched."""
    config = CampaignConfig(scale=0.01, seed=2025, loss_rate=0.0, keep_raw_messages=False)
    campaign = DeploymentCampaign(config=config)
    campaign.prepare()
    truth = CorpusTruth(campaign.cluster, campaign.manifest)
    result = campaign.run()
    assert not any(record.incomplete for record in result.records)
    return TruthCampaign(AnalysisPipeline(result.records, result.user_names), truth)


def _label(label: str | None) -> str:
    return UNKNOWN_LABEL if label is None else label


def _cells(matrix: UsageMatrix) -> set[tuple[str, str]]:
    return {(row, column) for row, values in zip(matrix.row_labels, matrix.cells)
            for column, value in zip(matrix.column_labels, values) if value}


def _user_paths(observed: TruthCampaign) -> set[str]:
    return {run.executable for run in observed.truth.user_runs()}


def _user_labels(observed: TruthCampaign) -> set[str]:
    return {_label(observed.truth.label(path)) for path in _user_paths(observed)}


def test_the_oracle_imports_nothing_of_the_analysis():
    """``truth.py`` and every oracle it imports, read from their import lines."""
    seen, todo, imported = set(), ["truth"], set()
    while todo:
        module = todo.pop()
        seen.add(module)
        for node in ast.walk(ast.parse((ORACLES / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        todo.extend({name.split(".")[1] for name in imported
                     if name.startswith("oracles.")} - seen)
    assert "repro.corpus.builder" in imported and "oracles.ledger" in imported
    assert not {name for name in imported if name.split(".")[:2] == ["repro", "analysis"]}


class TestTable5:
    def test_a_label_is_the_true_package_unless_the_path_names_none(self, observed):
        """Every user path is labelled with its package, and ``UNKNOWN`` is
        exactly the variants installed under a file name of their own."""
        truth = observed.truth
        labels = label_by_executable(observed.pipeline.records)
        assert labels.keys() == _user_paths(observed)
        assert labels == {path: _label(truth.label(path)) for path in labels}
        assert {path for path, label in labels.items() if label == UNKNOWN_LABEL} == \
            {path for path in labels if truth.renamed(path)} != set()

    def test_rows_count_the_runs_of_each_package(self, observed):
        rows = {row.label: (row.unique_users, row.job_count, row.process_count,
                            row.unique_file_h)
                for row in observed.pipeline.table5_user_applications()}
        assert rows == {_label(label): counts
                        for label, counts in observed.truth.table5().items()}


class TestTable6AndFigure4:
    def test_an_executables_toolchains_are_the_ones_it_was_built_with(self, observed):
        truth = observed.truth
        read = {record.executable: record_compiler_labels(record)
                for record in observed.pipeline.records
                if record.category == ExecutableCategory.USER.value}
        assert read == {path: truth.toolchains(path) for path in read}

    def test_table6_rows_count_the_runs_of_each_combination(self, observed):
        rows = {row.compilers: (row.unique_users, row.job_count, row.process_count,
                                row.unique_file_h)
                for row in observed.pipeline.table6_compilers()}
        assert rows == observed.truth.table6()

    def test_figure4_cells_are_the_toolchains_of_each_label(self, observed):
        matrix = observed.pipeline.figure4_compiler_matrix()
        assert set(matrix.row_labels) == _user_labels(observed)
        assert _cells(matrix) == {(_label(label), toolchain)
                                  for label, toolchain in observed.truth.figure4()}


class TestTable7:
    def test_each_unknown_instance_ranks_its_true_family_first(self, observed):
        truth = observed.truth
        searches = observed.pipeline.table7_similarity_search()
        assert set(searches) == {path for path in _user_paths(observed)
                                 if truth.renamed(path)} != set()
        for baseline, results in searches.items():
            family = truth.family(baseline)
            assert (results[0].label, truth.family(results[0].executable)) == \
                (family, family), baseline


class TestFigures2To5:
    def test_figure2_rows_count_the_runs_that_loaded_each_library(self, observed):
        rows = {row.tag: (row.unique_users, row.job_count, row.process_count,
                          row.unique_executables)
                for row in observed.pipeline.figure2_library_usage()}
        assert rows == observed.truth.figure2()

    def test_figure3_rows_count_the_runs_that_imported_each_package(self, observed):
        rows = {row.package: (row.unique_users, row.job_count, row.process_count,
                              row.unique_scripts)
                for row in observed.pipeline.figure3_python_packages()}
        assert rows == observed.truth.figure3()

    def test_figure5_cells_are_the_libraries_each_label_loaded(self, observed):
        matrix = observed.pipeline.figure5_library_matrix()
        assert set(matrix.row_labels) == _user_labels(observed)
        assert _cells(matrix) == {(_label(label), library)
                                  for label, library in observed.truth.figure5()}
