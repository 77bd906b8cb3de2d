"""Analysis of consolidated SIREN records.

Each module corresponds to one family of results in the paper's evaluation
(Section 4):

* :mod:`repro.analysis.stats` -- usage statistics: users/jobs/processes
  (Table 2), system executables (Table 3), shared-object variants (Table 4),
  Python interpreters (Table 8), all views of one streaming accumulator,
  ``TableRollup``,
* :mod:`repro.analysis.labels` -- regex-derived software labels for user
  executables (Table 5),
* :mod:`repro.analysis.compilers` -- compiler identification analysis (Table 6),
* :mod:`repro.analysis.libfilter` -- derived/filtered shared objects (Figure 2),
* :mod:`repro.analysis.pythonpkgs` -- imported Python packages (Figure 3),
* :mod:`repro.analysis.matrices` -- compiler x label and library x label
  usage matrices (Figures 4 and 5),
* :mod:`repro.analysis.similarity` -- fuzzy-hash similarity search that
  identifies unknown executables (Table 7),
* :mod:`repro.analysis.simindex` -- inverted n-gram index over CTPH digests
  that prunes the similarity search's candidate pairs without changing its
  results,
* :mod:`repro.analysis.live` -- incrementally maintained Table 2/3/4/8 stats
  and similarity search over streaming record deltas (mid-campaign views in
  O(new records), byte-identical to a rebuild),
* :mod:`repro.analysis.report` -- text rendering of all of the above.
"""

from repro.analysis.compilers import CompilerCombinationRow, compiler_combination_table
from repro.analysis.labels import LabelRow, derive_label, user_application_table
from repro.analysis.libfilter import LibraryUsageRow, library_usage_table
from repro.analysis.live import LiveAnalysis
from repro.analysis.matrices import compiler_label_matrix, library_label_matrix
from repro.analysis.pythonpkgs import PythonPackageRow, python_package_table
from repro.analysis.similarity import SimilarityResult, SimilaritySearch
from repro.analysis.simindex import DigestIndex, IndexStats, SimilarityIndex
from repro.analysis.stats import (
    PythonInterpreterRow,
    SharedObjectVariantRow,
    SystemExecutableRow,
    TableRollup,
    UserActivityRow,
)

__all__ = [
    "CompilerCombinationRow",
    "compiler_combination_table",
    "LabelRow",
    "derive_label",
    "user_application_table",
    "LibraryUsageRow",
    "library_usage_table",
    "compiler_label_matrix",
    "library_label_matrix",
    "PythonPackageRow",
    "python_package_table",
    "LiveAnalysis",
    "SimilarityResult",
    "SimilaritySearch",
    "DigestIndex",
    "IndexStats",
    "SimilarityIndex",
    "UserActivityRow",
    "SystemExecutableRow",
    "SharedObjectVariantRow",
    "PythonInterpreterRow",
    "TableRollup",
]
