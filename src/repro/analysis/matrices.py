"""Usage matrices: compilers x labels (Figure 4) and libraries x labels (Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.compilers import compilers_by_label
from repro.analysis.labels import label_by_executable
from repro.analysis.libfilter import library_tags_by_label
from repro.db.store import ProcessRecord


@dataclass(frozen=True)
class UsageMatrix:
    """A 0/1 matrix of rows (software labels) against columns (compilers or libraries)."""

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def value(self, row: str, column: str) -> int:
        """Cell lookup by names."""
        return self.cells[self.row_labels.index(row)][self.column_labels.index(column)]

    def row(self, row: str) -> dict[str, int]:
        """One row as a column->value dict."""
        values = self.cells[self.row_labels.index(row)]
        return dict(zip(self.column_labels, values))


def _build_matrix(mapping: dict[str, set[str]]) -> UsageMatrix:
    rows = tuple(sorted(mapping))
    columns: list[str] = []
    for values in mapping.values():
        for value in sorted(values):
            if value not in columns:
                columns.append(value)
    cells = tuple(
        tuple(1 if column in mapping[row] else 0 for column in columns)
        for row in rows
    )
    return UsageMatrix(row_labels=rows, column_labels=tuple(columns), cells=cells)


def compiler_label_matrix(records: list[ProcessRecord]) -> UsageMatrix:
    """Figure 4: which compiler toolchains each software label was built with."""
    return _build_matrix(compilers_by_label(records, label_by_executable(records)))


def library_label_matrix(records: list[ProcessRecord]) -> UsageMatrix:
    """Figure 5: which derived library tags each software label loads."""
    return _build_matrix(library_tags_by_label(records, label_by_executable(records)))
