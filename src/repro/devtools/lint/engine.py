"""The lint engine: source loading, suppression comments, checker registry.

The engine is deliberately small: it parses every Python file under the
scanned paths once (:class:`SourceModule` carries the AST, the raw lines and
the per-line suppression table), hands the parsed tree to every registered
checker, and filters the raw findings through the suppression table.  All
repo-specific knowledge lives in the checkers
(:mod:`~repro.devtools.lint.determinism`,
:mod:`~repro.devtools.lint.concurrency`, :mod:`~repro.devtools.lint.knobs`,
:mod:`~repro.devtools.lint.counters`); the engine knows only files, rules
and suppressions.

Suppression syntax
------------------
A violation is silenced by a comment on the offending line, or on a comment
line directly above it::

    value = random.random()  # repro: allow[determinism/unseeded-random] -- bench jitter only

The bracket names a full rule id, a rule family (``determinism``), or
``*``.  The ``-- reason`` clause is mandatory: an allow without a reason is
itself reported (``lint/missing-reason``), and an allow that matched no
finding is reported in ``--strict`` runs (``lint/unused-allow``) so stale
suppressions cannot linger.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

_ALLOW_COMMENT = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]+)\](?:\s*--\s*(?P<reason>\S.*))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str      #: full rule id, ``family/slug``
    message: str   #: human explanation, specific to the site
    path: str      #: repo-relative posix path
    line: int      #: 1-based line of the offending node
    col: int = 0   #: 0-based column

    @property
    def family(self) -> str:
        """The rule family (the part before the first ``/``)."""
        return self.rule.split("/", 1)[0]

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {"rule": self.rule, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col}


@dataclass
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    path: str
    comment_line: int          #: line the comment is written on
    target_line: int           #: line whose findings it silences
    rules: tuple[str, ...]     #: rule ids / families / ``*``
    reason: str | None
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        """Whether this allow silences ``finding``."""
        if finding.line != self.target_line:
            return False
        return any(rule in ("*", finding.rule, finding.family)
                   for rule in self.rules)


@dataclass
class SourceModule:
    """One parsed Python file plus its suppression table."""

    path: Path                 #: absolute path on disk
    rel: str                   #: repo-relative posix path (finding location)
    module: str                #: dotted module name, e.g. ``repro.hpcsim.cluster``
    text: str
    tree: ast.Module
    suppressions: list[Suppression] = field(default_factory=list)

    @property
    def package(self) -> str:
        """The dotted package holding this module."""
        return self.module.rsplit(".", 1)[0] if "." in self.module else ""


def parse_suppressions(rel: str, text: str) -> list[Suppression]:
    """Extract every allow comment of one file, resolving target lines.

    Comments are found by tokenising, not line regexes, so allow syntax
    quoted inside docstrings or string literals (this module documents it!)
    is never mistaken for a live suppression.  A comment sharing its line
    with code targets that line; a comment on a line of its own targets the
    next line (chains of standalone comments all target the first
    non-comment line below).
    """
    lines = text.splitlines()
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_COMMENT.search(token.string)
        if match is None:
            continue
        rules = tuple(rule.strip() for rule in match.group("rules").split(",")
                      if rule.strip())
        index = token.start[0]
        target = index
        if lines[index - 1][:token.start[1]].strip() == "":
            # Standalone comment: walk down to the first non-comment line.
            target = index + 1
            while target <= len(lines) and lines[target - 1].lstrip().startswith("#"):
                target += 1
        suppressions.append(Suppression(
            path=rel, comment_line=index, target_line=target,
            rules=rules, reason=match.group("reason")))
    return suppressions


def _module_name(path: Path) -> str:
    """Dotted module name of ``path``, anchored at the nearest package root."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def load_module(path: Path, repo_root: Path) -> SourceModule:
    """Parse one file into a :class:`SourceModule` (syntax errors propagate)."""
    text = path.read_text(encoding="utf-8")
    try:
        rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:  # scanned file outside the repo root (tests)
        rel = path.name
    return SourceModule(path=path, rel=rel, module=_module_name(path),
                        text=text, tree=ast.parse(text, filename=str(path)),
                        suppressions=parse_suppressions(rel, text))


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: set[Path] = set()
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class Checker:
    """Base class of every lint rule family.

    Subclasses override :meth:`check_module` (called once per parsed file)
    and/or :meth:`check_tree` (called once with every parsed file, for
    cross-file invariants such as knob parity).  ``family`` names the rule
    group; every finding a checker emits must use ``family/<slug>`` ids.
    """

    family: str = ""

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Per-file pass; default: nothing."""
        return ()

    def check_tree(self, modules: list[SourceModule]) -> Iterable[Finding]:
        """Whole-tree pass; default: nothing."""
        return ()


#: Registered checker factories, in registration (= report) order.
_REGISTRY: dict[str, Callable[[], Checker]] = {}


def register_checker(factory: Callable[[], Checker], *, family: str | None = None,
                     ) -> Callable[[], Checker]:
    """Register a checker factory under its family name (import-time hook)."""
    name = family if family is not None else factory().family
    _REGISTRY[name] = factory
    return factory


def registered_families() -> list[str]:
    """The registered rule families, in registration order."""
    _load_builtin_checkers()
    return list(_REGISTRY)


def registry_clear() -> None:
    """Reset the checker registry (test isolation; also the fork-safety
    hook the concurrency family demands of module-level mutable state)."""
    _REGISTRY.clear()


def _load_builtin_checkers() -> None:
    """(Re-)register the built-in rule families.

    Import side effects register them the first time; the explicit loop
    makes the registry self-repairing after :func:`registry_clear`.
    """
    from repro.devtools.lint import concurrency, counters, determinism, knobs
    for factory in (concurrency.ConcurrencyChecker,
                    counters.CounterRegistryChecker,
                    determinism.DeterminismChecker,
                    knobs.KnobParityChecker):
        if factory().family not in _REGISTRY:
            register_checker(factory)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]            #: surviving (unsuppressed) findings
    suppressed: list[Finding]          #: findings silenced by allow comments
    meta_findings: list[Finding]       #: problems with the allows themselves
    modules_scanned: int
    families: list[str]                #: rule families that ran

    @property
    def ok(self) -> bool:
        """Whether the scanned tree is clean (meta findings count)."""
        return not self.findings and not self.meta_findings

    def all_findings(self) -> list[Finding]:
        """Surviving + meta findings, the set a gate fails on."""
        return sorted(self.findings + self.meta_findings,
                      key=lambda f: (f.path, f.line, f.rule))


def run_lint(paths: Iterable[Path], *, repo_root: Path,
             select: Iterable[str] | None = None,
             checkers: Iterable[Checker] | None = None,
             strict: bool = False) -> LintResult:
    """Lint every Python file under ``paths`` with the selected families.

    ``select`` restricts to the named families (default: all registered);
    ``checkers`` bypasses the registry entirely (unit tests inject
    parameterised checker instances).  ``strict`` additionally reports
    allows that silenced nothing (``lint/unused-allow``).
    """
    if checkers is None:
        _load_builtin_checkers()
        wanted = set(select) if select is not None else None
        if wanted is not None:
            unknown = wanted - set(_REGISTRY)
            if unknown:
                raise ValueError(f"unknown rule families: {sorted(unknown)} "
                                 f"(registered: {sorted(_REGISTRY)})")
        active = [factory() for name, factory in _REGISTRY.items()
                  if wanted is None or name in wanted]
    else:
        active = list(checkers)

    modules = [load_module(path, repo_root) for path in iter_python_files(paths)]
    raw: list[Finding] = []
    for checker in active:
        for module in modules:
            raw.extend(checker.check_module(module))
        raw.extend(checker.check_tree(modules))

    suppression_index: dict[str, list[Suppression]] = {}
    for module in modules:
        suppression_index[module.rel] = module.suppressions

    surviving: list[Finding] = []
    silenced: list[Finding] = []
    for finding in raw:
        allow = next((s for s in suppression_index.get(finding.path, ())
                      if s.matches(finding)), None)
        if allow is not None:
            allow.used = True
            silenced.append(finding)
        else:
            surviving.append(finding)

    meta: list[Finding] = []
    for module in modules:
        for allow in module.suppressions:
            if allow.reason is None:
                meta.append(Finding(
                    rule="lint/missing-reason",
                    message=("allow comment needs a reason: write "
                             f"'# repro: allow[{','.join(allow.rules)}] -- why'"),
                    path=allow.path, line=allow.comment_line))
            if strict and not allow.used:
                meta.append(Finding(
                    rule="lint/unused-allow",
                    message=(f"allow[{','.join(allow.rules)}] silenced nothing "
                             "-- the violation is gone, remove the comment"),
                    path=allow.path, line=allow.comment_line))

    key = lambda f: (f.path, f.line, f.rule)  # noqa: E731 - local sort key
    return LintResult(findings=sorted(surviving, key=key),
                      suppressed=sorted(silenced, key=key),
                      meta_findings=sorted(meta, key=key),
                      modules_scanned=len(modules),
                      families=[checker.family for checker in active])
