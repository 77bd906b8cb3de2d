"""The gate applied to itself: the shipped tree is clean, the CLI behaves."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import registered_families, render_json, run_lint
from repro.devtools.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_WORKLOAD = """
import random


def pick():
    return random.random()
"""


@pytest.fixture(scope="module")
def shipped_result():
    return run_lint([REPO_ROOT / "src" / "repro"], repo_root=REPO_ROOT,
                    strict=True)


class TestShippedTree:
    def test_shipped_tree_is_clean_even_strict(self, shipped_result):
        assert shipped_result.findings == []
        assert shipped_result.meta_findings == []
        assert shipped_result.ok

    def test_all_four_families_ran(self, shipped_result):
        assert set(shipped_result.families) == {"determinism", "concurrency",
                                                "knobs", "counters"}
        assert set(registered_families()) == set(shipped_result.families)

    def test_whole_package_was_scanned(self, shipped_result):
        assert shipped_result.modules_scanned >= 90

    def test_json_report_shape(self, shipped_result):
        payload = json.loads(render_json(shipped_result))
        assert payload["ok"] is True
        assert payload["modules_scanned"] == shipped_result.modules_scanned
        assert set(payload) == {"ok", "modules_scanned", "families",
                                "findings", "suppressed", "meta_findings",
                                "counts"}


class TestCli:
    def _seeded_violation(self, tmp_path: Path) -> Path:
        # A fake repo layout whose workload package breaks determinism.
        package = tmp_path / "src" / "repro" / "workload"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "broken.py").write_text(BAD_WORKLOAD.lstrip("\n"))
        return tmp_path

    def test_violation_exits_one_and_names_the_rule(self, tmp_path, capsys):
        root = self._seeded_violation(tmp_path)
        assert main([str(root / "src" / "repro")]) == 1
        out = capsys.readouterr().out
        assert "determinism/unseeded-random" in out
        assert "FAILED" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "fine.py").write_text("VALUE = 1\n")
        assert main([str(package)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_artifact_is_written(self, tmp_path, capsys):
        root = self._seeded_violation(tmp_path)
        report = tmp_path / "out" / "lint.json"
        assert main([str(root / "src" / "repro"), "--json", str(report)]) == 1
        capsys.readouterr()
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["ok"] is False
        assert payload["counts"].get("determinism/unseeded-random") == 1

    def test_select_restricts_families(self, tmp_path, capsys):
        root = self._seeded_violation(tmp_path)
        assert main([str(root / "src" / "repro"),
                     "--select", "concurrency"]) == 0
        capsys.readouterr()

    def test_unknown_family_is_a_usage_error(self, tmp_path, capsys):
        root = self._seeded_violation(tmp_path)
        assert main([str(root / "src" / "repro"),
                     "--select", "nonesuch"]) == 2
        assert "unknown rule families" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["definitely/not/here.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == {"determinism", "concurrency", "knobs",
                               "counters"}

    def test_allow_comment_round_trip(self, tmp_path, capsys):
        root = self._seeded_violation(tmp_path)
        broken = root / "src" / "repro" / "workload" / "broken.py"
        source = broken.read_text(encoding="utf-8").replace(
            "return random.random()",
            "return random.random()  "
            "# repro: allow[determinism/unseeded-random] -- fixture")
        broken.write_text(source, encoding="utf-8")
        assert main([str(root / "src" / "repro")]) == 0
        assert "suppressed" in capsys.readouterr().out
