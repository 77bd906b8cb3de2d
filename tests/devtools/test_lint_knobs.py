"""Knob rules against a toy config hierarchy, a toy docs table and toy consumers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.devtools.lint.knobs import KnobParityChecker, parse_knob_table

from lint_fixtures import make_module, rules_of


@dataclass(frozen=True)
class ToySiren:
    wiring: int = 1
    other_wiring: int = 3


@dataclass(frozen=True)
class ToyCampaign(ToySiren):
    driver: int = 2


DOCS = """
# Toy architecture

| Knob | Scope | Description |
| --- | --- | --- |
| `wiring` | deployment | declared on the base |
| `other_wiring` | deployment | declared on the base too |
| `driver` | campaign | added by the subclass |
"""

CONSUMER = """
def wire(config):
    return (config.wiring, config.other_wiring, config.driver)
"""


def check(tmp_path, docs: str = DOCS, consumer: str = CONSUMER):
    docs_path = tmp_path / "architecture.md"
    docs_path.write_text(docs.lstrip("\n"), encoding="utf-8")
    checker = KnobParityChecker(config_cls=ToyCampaign, docs_path=docs_path)
    return list(checker.check_tree([make_module(consumer)]))


class TestParsing:
    def test_rows_scopes_and_lines(self):
        rows = parse_knob_table(DOCS.lstrip("\n"))
        assert rows["wiring"] == ("deployment", 5)
        assert rows["driver"] == ("campaign", 7)
        assert set(rows) == {"wiring", "other_wiring", "driver"}

    def test_non_table_backticks_are_ignored(self):
        assert parse_knob_table("use `wiring` with care\n") == {}


class TestParity:
    def test_consistent_fixture_is_clean(self, tmp_path):
        assert check(tmp_path) == []

    def test_missing_row_is_undocumented(self, tmp_path):
        docs = "\n".join(line for line in DOCS.splitlines()
                         if "`wiring`" not in line)
        findings = check(tmp_path, docs=docs)
        assert rules_of(findings) == ["knobs/undocumented"]
        assert "'wiring'" in findings[0].message

    def test_inherited_and_added_fields_are_both_checked(self, tmp_path):
        docs = "\n".join(line for line in DOCS.splitlines()
                         if "`other_wiring`" not in line and "`driver`" not in line)
        findings = check(tmp_path, docs=docs)
        assert rules_of(findings) == ["knobs/undocumented"] * 2

    def test_extra_row_is_stale(self, tmp_path):
        docs = DOCS + "| `ghost_knob` | deployment | removed long ago |\n"
        findings = check(tmp_path, docs=docs)
        assert rules_of(findings) == ["knobs/stale-doc"]
        assert "'ghost_knob'" in findings[0].message

    def test_unread_field_is_unconsumed(self, tmp_path):
        consumer = "def wire(config):\n    return (config.wiring, config.driver)\n"
        findings = check(tmp_path, consumer=consumer)
        assert rules_of(findings) == ["knobs/unconsumed"]
        assert "'other_wiring'" in findings[0].message

    def test_self_read_inside_either_config_class_counts(self, tmp_path):
        consumer = """
class ToySiren:
    def validate(self):
        return self.wiring


class ToyCampaign(ToySiren):
    def derived(self):
        return self.driver


def wire(config):
    return config.other_wiring
"""
        assert check(tmp_path, consumer=consumer) == []

    def test_self_read_outside_config_class_does_not_count(self, tmp_path):
        consumer = """
class Unrelated:
    def derived(self):
        return self.wiring + self.other_wiring + self.driver
"""
        findings = check(tmp_path, consumer=consumer)
        assert {f.rule for f in findings} == {"knobs/unconsumed"}
        assert len(findings) == 3

    def test_missing_docs_file_reports_and_stops(self, tmp_path):
        checker = KnobParityChecker(config_cls=ToyCampaign,
                                    docs_path=tmp_path / "nope.md")
        findings = list(checker.check_tree([make_module(CONSUMER)]))
        assert rules_of(findings) == ["knobs/undocumented"]


class TestRealRepoParity:
    """The shipped configs, docs table and tree agree (the actual gate)."""

    def test_real_configs_match_real_docs(self):
        from pathlib import Path

        from repro.devtools.lint.engine import iter_python_files, load_module

        root = Path(__file__).resolve().parents[2]
        modules = [load_module(path, root)
                   for path in iter_python_files([root / "src" / "repro"])]
        findings = list(KnobParityChecker().check_tree(modules))
        assert findings == []

    def test_docs_table_covers_every_field(self):
        import dataclasses
        from pathlib import Path

        from repro.workload.campaign import CampaignConfig

        root = Path(__file__).resolve().parents[2]
        rows = parse_knob_table((root / "docs" / "architecture.md")
                                .read_text(encoding="utf-8"))
        assert {f.name for f in dataclasses.fields(CampaignConfig)} == set(rows)
