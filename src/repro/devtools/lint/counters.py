"""Counter-registry rules: every surfaced statistics key is declared once.

The result views nest one emitter's counters inside another's
(``ingest_<key>``, ``fault_<key>``), and tests, benchmarks and docs read
them by name.  That only holds while every emitter uses the same
vocabulary -- so the vocabulary lives in one place,
:mod:`repro.util.counters`, and these rules keep the emitters and the
registry pointing at each other:

``counters/unregistered``
    A statistics function emits a literal key the registry does not declare.
``counters/unregistered-prefix``
    A statistics function emits a dynamically built key (an f-string) whose
    literal prefix is not a declared namespace -- or has no literal prefix
    at all, which no static check could ever vouch for.
``counters/unused-registration``
    A registry entry no scanned emitter produces: the counter was renamed
    or removed and the registry (and whatever docs cite it) kept the stale
    name.

Scanned emitters are functions named ``statistics`` or ``fault_counters``;
inside them the checker collects string keys of dict literals (including
``.update({...})`` arguments) and of subscript assignments
(``stats["key"] = ...``).  Key-wise folds over *other* emitters' dicts
(``merged[name] = ...`` with a variable key) are deliberately ignored: their
keys are checked at the emitter that spells them out.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import (Checker, Finding, SourceModule,
                                        register_checker)

#: Function names treated as counter emitters.
STATS_FUNCTIONS = ("statistics", "fault_counters")


def _literal_prefix(node: ast.JoinedStr) -> str | None:
    """The leading literal text of an f-string, or ``None`` if it starts dynamic."""
    if node.values and isinstance(node.values[0], ast.Constant):
        value = node.values[0].value
        if isinstance(value, str):
            return value
    return None


class _KeyCollector(ast.NodeVisitor):
    """Collect counter keys emitted inside one statistics function."""

    def __init__(self) -> None:
        self.literal_keys: list[tuple[str, int]] = []
        self.fstring_keys: list[tuple[str | None, int]] = []

    def _collect_key(self, node: ast.expr) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.literal_keys.append((node.value, node.lineno))
        elif isinstance(node, ast.JoinedStr):
            self.fstring_keys.append((_literal_prefix(node), node.lineno))

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None:
                self._collect_key(key)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._collect_key(target.slice)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._collect_key(node.target.slice)
        self.generic_visit(node)


class CounterRegistryChecker(Checker):
    """Cross-check statistics emitters against :mod:`repro.util.counters`."""

    family = "counters"

    def __init__(self, registry: dict[str, str] | None = None,
                 prefixes: dict[str, str] | None = None) -> None:
        self._registry = registry
        self._prefixes = prefixes

    def _resolve(self) -> tuple[dict[str, str], dict[str, str]]:
        if self._registry is not None:
            return self._registry, self._prefixes or {}
        from repro.util.counters import COUNTER_PREFIXES, COUNTERS
        return COUNTERS, (self._prefixes if self._prefixes is not None
                          else COUNTER_PREFIXES)

    def check_tree(self, modules: list[SourceModule]) -> Iterable[Finding]:
        registry, prefixes = self._resolve()
        emitted: set[str] = set()
        registry_rel = next(
            (m.rel for m in modules if m.module == "repro.util.counters"),
            "src/repro/util/counters.py")

        for module in modules:
            if module.module == "repro.util.counters":
                continue  # the registry's own docstrings/examples don't emit
            for function in ast.walk(module.tree):
                if not (isinstance(function, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                        and function.name in STATS_FUNCTIONS):
                    continue
                collector = _KeyCollector()
                for statement in function.body:
                    collector.visit(statement)
                for key, lineno in collector.literal_keys:
                    emitted.add(key)
                    if key not in registry:
                        yield Finding(
                            rule=f"{self.family}/unregistered",
                            message=(f"{function.name}() emits counter key "
                                     f"'{key}' which is not declared in "
                                     "repro.util.counters.COUNTERS; register "
                                     "it (result views and docs key off the "
                                     "registry)"),
                            path=module.rel, line=lineno)
                for prefix, lineno in collector.fstring_keys:
                    if prefix is None or prefix not in prefixes:
                        shown = "<dynamic>" if prefix is None else f"'{prefix}'"
                        yield Finding(
                            rule=f"{self.family}/unregistered-prefix",
                            message=(f"{function.name}() builds a counter key "
                                     f"with prefix {shown}, which is not a "
                                     "declared namespace in repro.util."
                                     "counters.COUNTER_PREFIXES"),
                            path=module.rel, line=lineno)

        if emitted:  # only meaningful when emitters were in scope
            for key in sorted(set(registry) - emitted):
                yield Finding(
                    rule=f"{self.family}/unused-registration",
                    message=(f"registry declares counter '{key}' but no "
                             "scanned statistics emitter produces it; the "
                             "counter was renamed or removed -- update the "
                             "registry"),
                    path=registry_rel, line=1)


register_checker(CounterRegistryChecker)
