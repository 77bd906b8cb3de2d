#!/usr/bin/env python3
"""Documentation link and quickstart checker.

Keeps ``README.md`` and ``docs/*.md`` honest without any third-party tools:

* every relative Markdown link target must exist in the repository,
* every backtick-quoted repository path (``src/...``, ``examples/foo.py``,
  ``benchmarks/...``, ...) must exist,
* every ``python <file>`` command shown in fenced shell blocks must point at
  an existing script,
* every ``BENCH_*.json`` mentioned (the README benchmark table keys its
  claims to committed benchmark reports) must exist at the repo root, and
* every fenced Python code block must at least compile, and its
  ``import``/``from`` lines against the local ``repro`` package must resolve
  (so the README quickstart cannot silently rot), and
* every backtick-quoted dotted name under ``repro`` (a module such as
  ``repro.db.tiered`` or an attribute such as
  ``repro.core.framework.SirenFramework``) must resolve in the import tree,
  and so must every bare ``Class.attr`` name (``MessageStore.load_processes_since``,
  ``IncrementalConsolidator.snapshot_delta(cursor)``) whose class is defined in a
  ``repro`` module: a renamed method or a dropped field is caught.  A class
  ``repro`` does not define (``Path.exists``) is not checked.

Run from anywhere; exits non-zero listing every stale reference:

    python scripts/check_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation files under check.
DOC_FILES = ("README.md", "docs/architecture.md")

#: Benchmark reports that must be committed at the repo root whether or not
#: a doc currently cites them (the docs-mention check alone would go quiet
#: if a report's README table row were deleted along with the report).
REQUIRED_BENCH_REPORTS = (
    "BENCH_faults.json",
    "BENCH_store.json",
)

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
_BENCH_REF = re.compile(r"`?(BENCH_\w+\.json)`?")
_BACKTICK_PATH = re.compile(
    r"`((?:src|docs|examples|benchmarks|tests|scripts)/[\w./-]*)`")
_PYTHON_CMD = re.compile(r"python\s+((?:examples|scripts|benchmarks)/[\w./-]+\.py)")
_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
_CLASS_ATTR = re.compile(r"`([A-Z]\w*(?:\.\w+)+)(?:\([^`]*\))?`")
_SELF_ASSIGNMENT = re.compile(r"\bself\.(\w+)\s*(?::[^=\n]+)?=[^=]")
_IMPORT_LINE = re.compile(r"^(?:from\s+(repro[\w.]*)\s+import\s+([\w, ]+)|import\s+(repro[\w.]*))",
                          re.MULTILINE)


def _exists(path: str) -> bool:
    return (REPO_ROOT / path.rstrip("/")).exists()


def check_file(doc_path: Path) -> list[str]:
    """Return one error string per stale reference in ``doc_path``."""
    errors: list[str] = []
    text = doc_path.read_text(encoding="utf-8")
    try:
        rel = doc_path.relative_to(REPO_ROOT)
    except ValueError:  # e.g. a temporary file under test
        rel = doc_path

    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (doc_path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{rel}: broken link -> {target}")

    for pattern in (_BACKTICK_PATH, _PYTHON_CMD):
        for match in pattern.finditer(text):
            if not _exists(match.group(1)):
                errors.append(f"{rel}: missing path -> {match.group(1)}")

    for name in sorted({m.group(1) for m in _BENCH_REF.finditer(text)}):
        if not _exists(name):
            errors.append(f"{rel}: benchmark report not committed -> {name}")

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        for language, body in _FENCE.findall(text):
            if language != "python":
                continue
            try:
                compile(body, f"{rel}:<python block>", "exec")
            except SyntaxError as exc:
                errors.append(f"{rel}: python block does not compile -> {exc}")
                continue
            errors.extend(_check_imports(body, rel))
        errors.extend(f"{rel}: unresolved name -> {name}"
                      for name in sorted(set(_DOTTED_NAME.findall(text)))
                      if not _resolves(name))
        errors.extend(f"{rel}: unresolved attribute -> {name}"
                      for name in sorted(set(_CLASS_ATTR.findall(text)))
                      if not _resolves_on_class(name))
    finally:
        sys.path.remove(str(REPO_ROOT / "src"))
    return errors


def _check_imports(body: str, rel: Path) -> list[str]:
    """Resolve ``repro`` imports of a doc code block against the real package."""
    errors: list[str] = []
    for from_module, names, plain_module in _IMPORT_LINE.findall(body):
        module_name = from_module or plain_module
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            errors.append(f"{rel}: quickstart imports fail -> {exc}")
            continue
        for name in filter(None, (part.strip() for part in names.split(","))):
            if not hasattr(module, name):
                errors.append(
                    f"{rel}: quickstart name missing -> {module_name}.{name}")
    return errors


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute reachable from one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        try:
            obj = (getattr(obj, part) if hasattr(obj, part)
                   else importlib.import_module(".".join(parts[:depth])))
        except ImportError:
            return False
    return True


@cache
def _repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by name."""
    import repro

    classes: dict[str, list[type]] = {}
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                classes.setdefault(name, []).append(value)
    return classes


def _resolves_on_class(dotted: str) -> bool:
    """Whether ``Class.attr[.attr...]`` names an attribute of a ``repro`` class
    of that name; ``True`` when no ``repro`` module defines the class."""
    class_name, *attributes = dotted.split(".")
    candidates = _repro_classes().get(class_name)
    return not candidates or any(_has_path(cls, attributes) for cls in candidates)


def _has_path(obj: object, attributes: list[str]) -> bool:
    for name in attributes:
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        # An instance attribute (a dataclass field without a default, one
        # ``__init__`` assigns): nothing below it can be looked up.
        return name in _instance_attributes(obj)
    return True


def _instance_attributes(obj: object) -> set[str]:
    names: set[str] = set()
    for klass in getattr(obj, "__mro__", ()):
        names.update(getattr(klass, "__annotations__", {}))
        try:
            names.update(_SELF_ASSIGNMENT.findall(inspect.getsource(klass)))
        except (OSError, TypeError):     # a builtin base such as ``object``
            pass
    return names


def main() -> int:
    errors: list[str] = []
    for doc in DOC_FILES:
        path = REPO_ROOT / doc
        if not path.exists():
            errors.append(f"missing documentation file: {doc}")
            continue
        errors.extend(check_file(path))
    for name in REQUIRED_BENCH_REPORTS:
        if not _exists(name):
            errors.append(f"required benchmark report not committed -> {name}")
    if errors:
        print(f"documentation check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"documentation check passed ({len(DOC_FILES)} file(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
