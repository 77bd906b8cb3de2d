"""Tests for text-table rendering."""

import pytest

from repro.util.tables import TextTable, format_count, render_matrix


class TestFormatCount:
    def test_thousands_separator(self):
        assert format_count(13448) == "13,448"

    def test_float_formatting(self):
        assert format_count(94.75) == "94.8"

    def test_small_int(self):
        assert format_count(7) == "7"


class TestTextTable:
    def test_renders_header_and_rows(self):
        table = TextTable(["User", "Jobs"], title="Table X")
        table.add_row(["user_1", 11782])
        rendered = table.render()
        assert "Table X" in rendered
        assert "user_1" in rendered
        assert "11,782" in rendered

    def test_row_length_mismatch_raises(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_none_rendered_as_dash(self):
        table = TextTable(["a"])
        table.add_row([None])
        assert "-" in table.render().splitlines()[-1]

    def test_bool_rendering(self):
        table = TextTable(["flag"])
        table.add_row([True])
        table.add_row([False])
        lines = table.render().splitlines()
        assert lines[-2].strip() == "yes"
        assert lines[-1].strip() == "no"

    def test_columns_aligned(self):
        table = TextTable(["name", "n"])
        table.add_row(["aaaaaaaaaa", 1])
        table.add_row(["b", 22222])
        header, rule, row1, row2 = table.render().splitlines()
        assert len(rule) >= len(header.rstrip())

    def test_str_equals_render(self):
        table = TextTable(["x"])
        table.add_row([1])
        assert str(table) == table.render()


class TestRenderMatrix:
    def test_matrix_cells_present(self):
        rendered = render_matrix(["icon"], ["GCC", "clang"], [[1, 0]], title="Fig")
        assert "icon" in rendered
        assert "GCC" in rendered
        last = rendered.splitlines()[-1]
        assert "1" in last and "0" in last
