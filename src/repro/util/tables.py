"""Plain-text table rendering used by benchmarks, examples and reports.

The paper presents its evaluation as a set of tables (Tables 2-8) and
matrix/figure summaries (Figures 2-5).  ``TextTable`` renders the same rows as
monospace tables so the benchmark harness can print output directly comparable
with the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def format_count(value: int | float) -> str:
    """Format a count with thousands separators, as the paper does (13,448)."""
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,d}"


@dataclass
class TextTable:
    """A small monospace table builder.

    Example
    -------
    >>> t = TextTable(["User", "Jobs"], title="Table 2")
    >>> t.add_row(["user_1", 11782])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    title: str = ""
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[object]) -> None:
        """Append one row; values are formatted with :func:`format_count` when numeric."""
        formatted: list[str] = []
        for value in values:
            if isinstance(value, bool):
                formatted.append("yes" if value else "no")
            elif isinstance(value, (int, float)):
                formatted.append(format_count(value))
            elif value is None:
                formatted.append("-")
            else:
                formatted.append(str(value))
        if len(formatted) != len(self.headers):
            raise ValueError(
                f"row has {len(formatted)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(formatted)

    def render(self) -> str:
        """Render the table as a string with a header rule and aligned columns."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def render_row(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(render_row(list(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(render_row(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.render()


def render_matrix(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    matrix: Sequence[Sequence[int]],
    title: str = "",
) -> str:
    """Render a 0/1 usage matrix the way Figures 4 and 5 present them."""
    table = TextTable(["label", *col_labels], title=title)
    for label, row in zip(row_labels, matrix):
        table.add_row([label, *row])
    return table.render()
