"""Rollup-counter rules: every tiered-store counter increment is registered.

The ``counters`` family cross-checks *statistics functions* -- dict
literals and ``stats["key"] = ...`` assignments inside ``statistics()`` and
friends -- against :mod:`repro.util.counters`.  The gold rollups
(:mod:`repro.db.tiered`) count differently: a ``counters`` mapping is
initialised once and incremented at the hot sites
(``self.counters["rollup_syncs"] += 1``), and ``AugAssign`` targets
are exactly what the statistics-function collector never visits.  A typo'd
increment key would surface a counter the registry (and the cross-mode
fold pins built on it) has never heard of -- but only at runtime, in
whichever test happens to hit that branch.

These rules close the gap by scanning *every* module for ``counters``
mapping traffic, wherever it lives:

``rollups/unregistered-counter``
    A subscript on a ``counters`` mapping (increment, assignment, or the
    initialising dict literal) uses a literal key that
    :data:`repro.util.counters.COUNTERS` does not declare.
``rollups/dynamic-key``
    A ``counters`` mapping is subscripted with a computed key, which no
    static check can vouch for.  Read-only folds over *other* emitters'
    dicts (``stats[key] = value`` loops) target ``stats``/``merged``
    mappings, not ``counters``, so they stay out of scope by naming
    convention.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import (Checker, Finding, SourceModule,
                                        register_checker)

#: Attribute/variable names treated as registered-counter mappings.
COUNTER_MAPPING_NAMES = ("counters",)


def _is_counter_mapping(node: ast.expr) -> bool:
    """Whether ``node`` names a counter mapping (``self.counters``, ``counters``)."""
    if isinstance(node, ast.Attribute):
        return node.attr in COUNTER_MAPPING_NAMES
    if isinstance(node, ast.Name):
        return node.id in COUNTER_MAPPING_NAMES
    return False


class _CounterTraffic(ast.NodeVisitor):
    """Collect every write touch of a ``counters`` mapping in one module."""

    def __init__(self) -> None:
        self.literal_keys: list[tuple[str, int]] = []
        self.dynamic_keys: list[int] = []

    def _collect_subscript(self, node: ast.Subscript) -> None:
        if not _is_counter_mapping(node.value):
            return
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            self.literal_keys.append((node.slice.value, node.lineno))
        else:
            self.dynamic_keys.append(node.lineno)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._collect_subscript(node.target)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._collect_subscript(target)
            elif (_is_counter_mapping(target)
                  and isinstance(node.value, ast.Dict)):
                self._collect_dict(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._collect_subscript(node.target)
        elif (_is_counter_mapping(node.target) and node.value is not None
              and isinstance(node.value, ast.Dict)):
            self._collect_dict(node.value)
        self.generic_visit(node)

    def _collect_dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.literal_keys.append((key.value, key.lineno))
            elif key is not None:
                self.dynamic_keys.append(key.lineno)


class RollupCounterChecker(Checker):
    """Check ``counters``-mapping increment sites against the registry."""

    family = "rollups"

    def __init__(self, registry: dict[str, str] | None = None) -> None:
        self._registry = registry

    def _resolve(self) -> dict[str, str]:
        if self._registry is not None:
            return self._registry
        from repro.util.counters import COUNTERS
        return COUNTERS

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if module.module == "repro.util.counters":
            return  # the registry's own docstring examples are not traffic
        registry = self._resolve()
        traffic = _CounterTraffic()
        traffic.visit(module.tree)
        for key, lineno in traffic.literal_keys:
            if key not in registry:
                yield Finding(
                    rule=f"{self.family}/unregistered-counter",
                    message=(f"counter mapping key '{key}' is not declared "
                             "in repro.util.counters.COUNTERS; register it "
                             "(statistics folds and the docs key off the "
                             "registry)"),
                    path=module.rel, line=lineno)
        for lineno in traffic.dynamic_keys:
            yield Finding(
                rule=f"{self.family}/dynamic-key",
                message=("counter mapping subscripted with a computed key; "
                         "spell registered counter keys as string literals "
                         "so the registry cross-check can see them"),
                path=module.rel, line=lineno)


register_checker(RollupCounterChecker)
