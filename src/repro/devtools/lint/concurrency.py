"""State and fault hygiene rules: module caches stay resettable, faults stay visible.

Everything runs in one interpreter, so module state outlives the campaign
that filled it, and the receiving side must never lose a fault silently.
These rules encode the bug classes both have already produced:

``concurrency/module-mutable-cache``
    A module-level mutable cache (a dict/list/set/deque the module mutates
    after import, or a ``functools.lru_cache``/``cache``-decorated function)
    without a ``*_clear()`` hook in the same module that references it.
    Every campaign, deployment and test in the interpreter shares such
    state; without a registered clear hook there is no way to reset it
    between campaigns or between tests, and cross-campaign contamination is
    invisible until counters drift (a compare LRU shared across campaigns
    once did exactly that).  Constants built at import and only read
    afterwards are fine -- the rule fires only when the module *mutates* the
    object after definition.
``concurrency/bare-except``
    ``except:`` catches ``SystemExit``/``KeyboardInterrupt`` and turns
    shutdown into a hang; always name the exception.
``concurrency/swallowed-exception``
    ``except Exception`` (or ``BaseException``) in :mod:`repro.transport` /
    :mod:`repro.ingest` whose handler neither re-raises nor increments a
    counter.  Overbroad swallowing is legitimate exactly once -- the
    fire-and-forget sender -- and there it *counts* what it swallowed;
    silent variants hide real faults from the statistics the equivalence
    suites pin.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import (Checker, Finding, SourceModule,
                                        register_checker)

#: Packages whose overbroad exception handlers must count or re-raise.
SWALLOW_SCOPE = ("repro.transport", "repro.ingest")

#: Mutating method names that mark a module-level object as a live cache.
_MUTATING_METHODS = frozenset({"append", "add", "update", "setdefault", "pop",
                               "popitem", "extend", "insert", "appendleft",
                               "discard", "remove"})

_CACHE_DECORATORS = frozenset({"lru_cache", "cache"})

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _terminal_name(node: ast.expr) -> str:
    """Terminal name of a call/attribute chain (``functools.lru_cache()`` -> ``lru_cache``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_mutable_literal(node: ast.expr) -> bool:
    """Whether an assigned value is a mutable container literal/constructor."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _terminal_name(node) in ("dict", "list", "set", "deque",
                                        "defaultdict", "OrderedDict", "Counter")
    return False


def _root_name(node: ast.expr) -> str | None:
    """Leftmost ``Name`` of a subscript/attribute chain."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _MutationScanner(ast.NodeVisitor):
    """Collect which of ``names`` the visited code mutates, with first line."""

    def __init__(self, names: set[str]) -> None:
        self.names = names
        self.mutated: dict[str, int] = {}

    def _record(self, name: str | None, lineno: int) -> None:
        if name in self.names and name not in self.mutated:
            self.mutated[name] = lineno

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            self._record(_root_name(func.value), node.lineno)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record(_root_name(target), node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._record(_root_name(node.target), node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record(_root_name(target), node.lineno)
        self.generic_visit(node)


def _handler_counts_or_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether an except handler re-raises or increments a counter."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            return True
    return False


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    """Whether the handler catches ``Exception``/``BaseException`` (incl. tuples)."""
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(_terminal_name(node) in ("Exception", "BaseException")
               for node in types if node is not None)


class ConcurrencyChecker(Checker):
    """Module-cache and exception-hygiene rules."""

    family = "concurrency"

    def __init__(self, swallow_scope: tuple[str, ...] = SWALLOW_SCOPE) -> None:
        self.swallow_scope = swallow_scope

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        yield from self._check_excepts(module)
        yield from self._check_module_caches(module)

    # ------------------------------------------------------------------ #
    def _check_excepts(self, module: SourceModule) -> Iterable[Finding]:
        in_swallow_scope = any(
            module.module == pkg or module.module.startswith(pkg + ".")
            for pkg in self.swallow_scope)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    rule=f"{self.family}/bare-except",
                    message=("bare 'except:' also catches SystemExit/"
                             "KeyboardInterrupt; name the exception type"),
                    path=module.rel, line=node.lineno, col=node.col_offset)
            elif (in_swallow_scope and _catches_everything(node)
                  and not _handler_counts_or_reraises(node)):
                yield Finding(
                    rule=f"{self.family}/swallowed-exception",
                    message=("'except Exception' here neither re-raises nor "
                             "increments a counter: faults vanish from the "
                             "statistics the equivalence suites pin; count it "
                             "or narrow the type"),
                    path=module.rel, line=node.lineno, col=node.col_offset)

    # ------------------------------------------------------------------ #
    def _check_module_caches(self, module: SourceModule) -> Iterable[Finding]:
        # Clear hooks and the names their bodies reference: a hook exempts
        # exactly the caches it actually clears.
        cleared_names: set[str] = set()
        for node in module.tree.body:
            if (isinstance(node, _FunctionDef)
                    and ("_clear" in node.name or node.name.startswith("clear_"))):
                cleared_names.update(
                    sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))

        for node in module.tree.body:
            if isinstance(node, _FunctionDef):
                cached = any(_terminal_name(dec) in _CACHE_DECORATORS
                             for dec in node.decorator_list)
                if cached and node.name not in cleared_names:
                    yield Finding(
                        rule=f"{self.family}/module-mutable-cache",
                        message=(f"module-level cache '{node.name}' (lru_cache)"
                                 " has no *_clear() hook in this module; a later"
                                 " campaign or test in the same interpreter"
                                 " cannot reset it"),
                        path=module.rel, line=node.lineno, col=node.col_offset)

        # Module-level mutable containers the module mutates after import.
        candidates: dict[str, int] = {}
        for node in module.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    candidates.setdefault(target.id, node.lineno)
        if not candidates:
            return
        scanner = _MutationScanner(set(candidates))
        for node in module.tree.body:
            if isinstance(node, (*_FunctionDef, ast.ClassDef)):
                scanner.visit(node)
        for name, lineno in sorted(scanner.mutated.items(),
                                   key=lambda item: item[1]):
            if name in cleared_names:
                continue
            yield Finding(
                rule=f"{self.family}/module-mutable-cache",
                message=(f"module-level container '{name}' is mutated at "
                         f"runtime (line {lineno}) but no *_clear() hook in "
                         "this module references it; every later campaign or "
                         "test in the interpreter inherits it"),
                path=module.rel, line=candidates[name], col=0)


register_checker(ConcurrencyChecker)
