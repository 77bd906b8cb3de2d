"""Knob rules: config fields must agree with the code that reads them and the docs.

Every deployment knob is one field of
:class:`~repro.core.config.SirenConfig`; a campaign's driver knobs are the
fields :class:`~repro.workload.campaign.CampaignConfig` adds on top by
subclassing it.  Each must be consumed somewhere in ``src/repro`` and
described in the knob table of ``docs/architecture.md``.

The checker *introspects* the dataclass hierarchy (``dataclasses.fields`` of
the leaf class covers both), parses the docs knob table, and scans the ASTs
for consumption -- no regexes over source text:

``knobs/undocumented``
    A dataclass field missing from the docs knob table.
``knobs/stale-doc``
    A docs row naming a knob the config hierarchy does not have.
``knobs/unconsumed``
    No scanned module reads the field (``config.<name>`` /
    ``*.config.<name>``, or ``self.<name>`` inside a config class's own
    methods): a knob that nothing consumes is either dead or -- worse --
    silently ignored.

The docs table rows have the shape ``| `name` | scope | description |``
with scope ``deployment`` (declared on ``SirenConfig``) or ``campaign``
(added by ``CampaignConfig``).
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterable

from repro.devtools.lint.engine import (Checker, Finding, SourceModule,
                                        register_checker)

_DOC_ROW = re.compile(r"^\|\s*`(?P<name>[A-Za-z_][A-Za-z0-9_]*)`\s*\|"
                      r"\s*(?P<scope>deployment|campaign)\s*\|")


def parse_knob_table(text: str) -> dict[str, tuple[str, int]]:
    """``{knob: (scope, line)}`` from every knob-table row in ``text``."""
    rows: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _DOC_ROW.match(line.strip())
        if match is not None:
            rows[match.group("name")] = (match.group("scope"), lineno)
    return rows


class _ConsumptionScanner(ast.NodeVisitor):
    """Find reads of config fields across a module.

    A field counts as consumed when read off a config object
    (``config.<name>``, ``self.config.<name>``, ``campaign.config.<name>``)
    or via ``self.<name>`` inside a method of one of the config classes
    themselves.
    """

    def __init__(self, names: set[str], config_class_names: set[str]) -> None:
        self.names = names
        self.config_class_names = config_class_names
        self.consumed: set[str] = set()
        self._in_config_class = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        inside = node.name in self.config_class_names
        self._in_config_class += inside
        self.generic_visit(node)
        self._in_config_class -= inside

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in self.names:
            value = node.value
            terminal = (value.attr if isinstance(value, ast.Attribute)
                        else value.id if isinstance(value, ast.Name) else "")
            if terminal == "config":
                self.consumed.add(node.attr)
            elif terminal == "self" and self._in_config_class:
                self.consumed.add(node.attr)
        self.generic_visit(node)


class KnobParityChecker(Checker):
    """Cross-check the config hierarchy, consumption and docs."""

    family = "knobs"

    def __init__(self, config_cls: type | None = None,
                 docs_path: Path | None = None) -> None:
        self._config_cls = config_cls
        self._docs_path = docs_path

    # Lazy resolution keeps checker *registration* import-light and lets
    # unit tests inject a toy dataclass hierarchy and a toy docs file.
    def _resolve(self) -> tuple[type, Path]:
        config_cls = self._config_cls
        if config_cls is None:
            from repro.workload.campaign import CampaignConfig
            config_cls = CampaignConfig
        docs_path = self._docs_path
        if docs_path is None:
            import repro
            docs_path = (Path(repro.__file__).resolve().parents[2]
                         / "docs" / "architecture.md")
        return config_cls, docs_path

    def check_tree(self, modules: list[SourceModule]) -> Iterable[Finding]:
        config_cls, docs_path = self._resolve()
        fields = {f.name for f in dataclasses.fields(config_cls)}
        config_classes = [cls for cls in config_cls.__mro__
                          if dataclasses.is_dataclass(cls)]
        config_rel = self._definition_rel(modules, config_classes)
        if config_rel is None:
            if self._config_cls is None:
                # Partial scan that does not include the config definitions
                # (e.g. linting one subpackage): the rules are whole-tree
                # invariants, so stay silent rather than report the knobs as
                # unconsumed by a tree that never could consume them.
                return
            # Injected test doubles live outside the scanned tree; anchor
            # their findings to the first scanned module instead.
            config_rel = modules[0].rel if modules else "<configs>"

        docs_rel = docs_path.as_posix()
        if not docs_path.exists():
            yield Finding(rule=f"{self.family}/undocumented",
                          message=f"knob table file missing: {docs_rel}",
                          path=config_rel, line=1)
            return
        documented = parse_knob_table(docs_path.read_text(encoding="utf-8"))

        for name in sorted(fields - set(documented)):
            yield Finding(
                rule=f"{self.family}/undocumented",
                message=(f"knob '{name}' is missing from the knob table in "
                         f"{docs_rel}; add a '| `{name}` | <scope> | ...' row"),
                path=config_rel, line=1)
        for name in sorted(set(documented) - fields):
            yield Finding(
                rule=f"{self.family}/stale-doc",
                message=(f"{docs_rel}:{documented[name][1]} documents knob "
                         f"'{name}' but {config_cls.__name__} has no such field"),
                path=config_rel, line=1)

        yield from self._check_consumption(
            modules, fields, {cls.__name__ for cls in config_classes}, config_rel)

    def _check_consumption(self, modules: list[SourceModule], names: set[str],
                           class_names: set[str], config_rel: str,
                           ) -> Iterable[Finding]:
        consumed: set[str] = set()
        for module in modules:
            scanner = _ConsumptionScanner(names, class_names)
            scanner.visit(module.tree)
            consumed.update(scanner.consumed)
        for name in sorted(names - consumed):
            yield Finding(
                rule=f"{self.family}/unconsumed",
                message=(f"knob '{name}' is never read from a config object "
                         "in the scanned tree: it is either dead or silently "
                         "ignored by the deployment wiring"),
                path=config_rel, line=1)

    @staticmethod
    def _definition_rel(modules: list[SourceModule],
                        config_classes: list[type]) -> str | None:
        """Path findings anchor to (a config-defining module), or ``None``
        when the scan does not include the config definitions at all."""
        wanted = {cls.__module__ for cls in config_classes}
        for module in modules:
            if module.module in wanted:
                return module.rel
        return None


register_checker(KnobParityChecker)
