"""Engine behaviour: suppressions, meta findings, selection, the registry."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import engine as lint_engine
from repro.devtools.lint.engine import (Checker, Finding, Suppression,
                                        parse_suppressions, register_checker,
                                        registered_families, registry_clear,
                                        run_lint)


class LineFlagger(Checker):
    """Test checker: flags every line carrying a ``FLAG`` token."""

    family = "toy"

    def check_module(self, module):
        for lineno, line in enumerate(module.text.splitlines(), start=1):
            if "FLAG" in line:
                yield Finding(rule="toy/flag", message="flagged line",
                              path=module.rel, line=lineno)


def lint_tree(tmp_path: Path, source: str, *, strict: bool = False):
    (tmp_path / "mod.py").write_text(source.lstrip("\n"), encoding="utf-8")
    return run_lint([tmp_path], repo_root=tmp_path,
                    checkers=[LineFlagger()], strict=strict)


class TestSuppressionParsing:
    def test_inline_comment_targets_its_own_line(self):
        allows = parse_suppressions("m.py", "x = 1  # repro: allow[toy/flag] -- why\n")
        assert len(allows) == 1
        assert allows[0].target_line == allows[0].comment_line == 1
        assert allows[0].rules == ("toy/flag",)
        assert allows[0].reason == "why"

    def test_standalone_comment_targets_next_code_line(self):
        source = "# repro: allow[toy] -- block below\n# more commentary\nx = 1\n"
        allows = parse_suppressions("m.py", source)
        assert allows[0].comment_line == 1
        assert allows[0].target_line == 3

    def test_comma_separated_rule_list(self):
        allows = parse_suppressions(
            "m.py", "x = 1  # repro: allow[toy/flag, other/rule] -- both\n")
        assert allows[0].rules == ("toy/flag", "other/rule")

    def test_missing_reason_parses_as_none(self):
        allows = parse_suppressions("m.py", "x = 1  # repro: allow[toy/flag]\n")
        assert allows[0].reason is None

    def test_quoted_syntax_in_strings_is_inert(self):
        # The engine documents its own syntax in docstrings; tokenising (not
        # line-regexing) keeps those examples from becoming live suppressions.
        source = (
            '"""Write ``# repro: allow[toy/flag] -- reason`` to silence."""\n'
            "MESSAGE = 'use # repro: allow[*] here'\n"
        )
        assert parse_suppressions("m.py", source) == []

    def test_matching_by_id_family_and_star(self):
        finding = Finding(rule="toy/flag", message="m", path="m.py", line=3)
        for rules in (("toy/flag",), ("toy",), ("*",)):
            allow = Suppression(path="m.py", comment_line=3, target_line=3,
                                rules=rules, reason="r")
            assert allow.matches(finding)
        wrong_line = Suppression(path="m.py", comment_line=2, target_line=2,
                                 rules=("*",), reason="r")
        assert not wrong_line.matches(finding)


class TestRunLint:
    def test_finding_survives_without_allow(self, tmp_path):
        result = lint_tree(tmp_path, "x = 'FLAG'\n")
        assert [f.rule for f in result.findings] == ["toy/flag"]
        assert not result.ok

    def test_allow_with_reason_suppresses(self, tmp_path):
        result = lint_tree(
            tmp_path, "x = 'FLAG'  # repro: allow[toy/flag] -- fixture\n")
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["toy/flag"]
        assert result.ok

    def test_allow_without_reason_is_a_meta_finding(self, tmp_path):
        result = lint_tree(tmp_path, "x = 'FLAG'  # repro: allow[toy/flag]\n")
        assert [f.rule for f in result.meta_findings] == ["lint/missing-reason"]
        assert not result.ok  # the suppression works but the gate still fails

    def test_unused_allow_fails_only_in_strict(self, tmp_path):
        source = "x = 1  # repro: allow[toy/flag] -- stale\n"
        assert lint_tree(tmp_path, source).ok
        strict = lint_tree(tmp_path, source, strict=True)
        assert [f.rule for f in strict.meta_findings] == ["lint/unused-allow"]

    def test_unknown_select_family_raises(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown rule families"):
            run_lint([tmp_path], repo_root=tmp_path, select=["nonesuch"])


class TestRegistry:
    def test_builtin_families_registered(self):
        assert set(registered_families()) == {"determinism", "concurrency",
                                              "knobs", "counters"}

    def test_registry_clear_is_self_repairing(self):
        registry_clear()
        assert lint_engine._REGISTRY == {}
        # the loader re-registers the builtins even though their modules
        # were already imported (import side effects only fire once)
        assert len(registered_families()) == 4

    def test_register_checker_uses_family_name(self):
        before = dict(lint_engine._REGISTRY)
        try:
            register_checker(LineFlagger)
            assert lint_engine._REGISTRY["toy"] is LineFlagger
        finally:
            lint_engine._REGISTRY.clear()
            lint_engine._REGISTRY.update(before)
