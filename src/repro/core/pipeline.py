"""Analysis pipeline: every table and figure of the paper as one method.

:class:`AnalysisPipeline` wraps a list of consolidated process records (plus
the anonymised user mapping) and exposes the paper's evaluation artefacts --
Tables 2-8 and Figures 2-5 -- as data-returning methods, plus ``render_*``
helpers producing the text tables the benchmark harness prints.

Every analysis sees the records in process-key order, whatever order they
are passed in -- the order gold and :class:`~repro.analysis.live.LiveAnalysis`
answer in.  Tables 2, 3, 4 and 8 are views of one
:class:`~repro.analysis.stats.TableRollup`, folded on the first table call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.analysis import report
from repro.analysis.compilers import CompilerCombinationRow, compiler_combination_table
from repro.analysis.labels import LabelRow, user_application_table
from repro.analysis.libfilter import LibraryUsageRow, library_usage_table
from repro.analysis.matrices import UsageMatrix, compiler_label_matrix, library_label_matrix
from repro.analysis.pythonpkgs import PythonPackageRow, python_package_table
from repro.analysis.similarity import SimilarityResult, SimilaritySearch
from repro.analysis.stats import (
    PythonInterpreterRow,
    SharedObjectVariantRow,
    SystemExecutableRow,
    TableRollup,
    UserActivityRow,
)
from repro.db.store import ProcessRecord
from repro.util.errors import AnalysisError


@dataclass
class AnalysisPipeline:
    """All evaluation analyses over one set of consolidated records.

    ``records`` becomes a key-sorted copy of the list passed in; the tables
    are folded from it once, so they do not see records appended later.
    """

    records: list[ProcessRecord]
    user_names: dict[int, str] = field(default_factory=dict)
    _rollup: TableRollup | None = field(init=False, default=None, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        self.records = sorted(self.records, key=attrgetter("key"))

    def _tables(self) -> TableRollup:
        """The fold of ``records`` behind Tables 2, 3, 4 and 8, built once."""
        if self._rollup is None:
            rollup = TableRollup(self.user_names)
            for record in self.records:
                rollup.fold(record)
            self._rollup = rollup
        return self._rollup

    # ------------------------------------------------------------------ #
    # tables
    # ------------------------------------------------------------------ #
    def table2_user_activity(self) -> list[UserActivityRow]:
        """Table 2: users, jobs and processes per category."""
        return self._tables().user_activity()

    def table3_system_executables(self, top: int | None = 10) -> list[SystemExecutableRow]:
        """Table 3: most used system-directory executables."""
        return self._tables().system_executables(top)

    def table4_shared_object_variants(self, executable_name: str = "bash",
                                      ) -> list[SharedObjectVariantRow]:
        """Table 4: distinct shared-object sets of one executable."""
        return self._tables().shared_object_variants(executable_name)

    def table5_user_applications(self) -> list[LabelRow]:
        """Table 5: derived labels for user applications."""
        return user_application_table(self.records, self.user_names)

    def table6_compilers(self) -> list[CompilerCombinationRow]:
        """Table 6: compiler combinations of user applications."""
        return compiler_combination_table(self.records, self.user_names)

    def table7_similarity_search(self, top: int = 10) -> dict[str, list[SimilarityResult]]:
        """Table 7: similarity search identifying every UNKNOWN instance."""
        return self.similarity_search().identify_unknown(top=top)

    def table8_python_interpreters(self) -> list[PythonInterpreterRow]:
        """Table 8: Python interpreters."""
        return self._tables().python_interpreters()

    # ------------------------------------------------------------------ #
    # figures
    # ------------------------------------------------------------------ #
    def figure2_library_usage(self) -> list[LibraryUsageRow]:
        """Figure 2: derived/filtered shared objects of user applications."""
        return library_usage_table(self.records, self.user_names)

    def figure3_python_packages(self) -> list[PythonPackageRow]:
        """Figure 3: imported Python packages."""
        return python_package_table(self.records, self.user_names)

    def figure4_compiler_matrix(self) -> UsageMatrix:
        """Figure 4: compiler usage per software label."""
        return compiler_label_matrix(self.records)

    def figure5_library_matrix(self) -> UsageMatrix:
        """Figure 5: library usage per software label."""
        return library_label_matrix(self.records)

    # ------------------------------------------------------------------ #
    # similarity helpers
    # ------------------------------------------------------------------ #
    def similarity_search(self) -> SimilaritySearch:
        """The underlying similarity search, for custom queries."""
        return SimilaritySearch(self.records)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render_all(self) -> str:
        """Render every table and figure as one text report.

        The Table 7 section is skipped -- silently, by design -- only when the
        similarity search raises :class:`AnalysisError` because the dataset
        contains no UNKNOWN instance to identify (common at small campaign
        scales).  Any other exception propagates to the caller.
        """
        sections = [
            report.render_user_activity(self.table2_user_activity()),
            report.render_system_executables(self.table3_system_executables()),
            report.render_shared_object_variants(self.table4_shared_object_variants()),
            report.render_labels(self.table5_user_applications()),
            report.render_compiler_combinations(self.table6_compilers()),
            report.render_python_interpreters(self.table8_python_interpreters()),
            report.render_library_usage(self.figure2_library_usage()),
            report.render_python_packages(self.figure3_python_packages()),
            report.render_matrix(self.figure4_compiler_matrix(), "Figure 4 (compilers x labels)"),
            report.render_matrix(self.figure5_library_matrix(), "Figure 5 (libraries x labels)"),
        ]
        try:
            searches = self.table7_similarity_search()
            for path, results in searches.items():
                sections.append(report.render_similarity(
                    results, title=f"Table 7 (baseline: {path})"))
        except AnalysisError:
            pass  # no UNKNOWN instance in small datasets -- nothing to render

        return "\n\n".join(sections)
