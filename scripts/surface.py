#!/usr/bin/env python3
"""The public surface of ``src/repro``, as one committed and sorted manifest.

``docs/surface.txt`` has one line per entry, sorted, each starting with the
entry's qualified name:

* every module (``module``);
* every public class, with its decorators and bases (``class(...)``);
* every public function and method, dunders included, with its decorators
  and signature (``def(...)``);
* for each dataclass and named tuple, its own fields: ``field`` for a
  constructor parameter (with its default), ``state`` for an ``init=False``
  one, which the object keeps but no caller sets;
* the constructor parameters of each class that has a constructor, counted
  and named in order (``init``).

The manifest is rendered from the parsed source, without importing the
package, so it depends on nothing but the files.  A test renders it again and
compares it with the committed file, so a knob, method or parameter that
comes back, or a counter that becomes a constructor argument, is a diff that
the change has to commit.

Physical line counts change on every edit, so they are not in the file.
``--figures`` prints them, those of SIREN and of its substrate per package
(:data:`LAYERS`), the config field counts and the constructor parameter
counts:

    python scripts/surface.py            # rewrite docs/surface.txt
    python scripts/surface.py --figures  # the tracked figures, one per line
"""

from __future__ import annotations

import argparse
import ast
import difflib
import sys
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
MANIFEST = REPO_ROOT / "docs" / "surface.txt"
REGENERATE = "python scripts/surface.py"
#: The trees whose physical lines ``--figures`` counts.
LINE_COUNTED = ("src/repro", "tests", "benchmarks")
#: Which side of the line each package is on.  SIREN is what the paper
#: built; the substrate stands in for the supercomputer it ran on; the shared
#: utilities and the top-level re-exports are exempt.  A module belongs to
#: the longest entry it is or is in (:func:`package_of`), so ``repro.elf`` is
#: SIREN (the reader, strings and symbols modules are the collector's
#: ``libelf``) and ``repro.elf.builder`` the substrate.  The ``layers`` rule
#: of ``tests/test_repo_invariants.py`` and ``--figures`` both read it.
LAYERS = {
    **dict.fromkeys(("repro.collector", "repro.transport", "repro.ingest", "repro.db",
                     "repro.analysis", "repro.hashing", "repro.core", "repro.elf"),
                    "SIREN"),
    **dict.fromkeys(("repro.hpcsim", "repro.corpus", "repro.workload", "repro.elf.builder"),
                    "substrate"),
    **dict.fromkeys(("repro", "repro.util"), "exempt"),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_paths(src: Path = SRC) -> dict[str, Path]:
    """``{module name: file}`` of every file under ``src/repro``."""
    return {".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__"): path
            for path in sorted((src / "repro").rglob("*.py"))}


def parse_package(src: Path = SRC) -> dict[str, ast.Module]:
    """``{module name: parsed tree}`` of every file under ``src/repro``."""
    return {module: ast.parse(path.read_text(encoding="utf-8"))
            for module, path in module_paths(src).items()}


def package_of(module: str) -> str:
    """The longest entry of :data:`LAYERS` that ``module`` is or is in
    (``""`` for a module outside the package)."""
    parts = module.split(".")
    return next((".".join(parts[:end]) for end in range(len(parts), 0, -1)
                 if ".".join(parts[:end]) in LAYERS), "")


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _decorators(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> str:
    return "".join(f"@{ast.unparse(decorator)} " for decorator in node.decorator_list)


def _signature(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    returns = f" -> {ast.unparse(node.returns)}" if node.returns else ""
    kind = "async def" if isinstance(node, ast.AsyncFunctionDef) else "def"
    return f"{_decorators(node)}{kind}({ast.unparse(node.args)}){returns}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator)
               .rpartition(".")[2] == "dataclass" for decorator in node.decorator_list)


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``: its annotated names are its fields."""
    return _is_dataclass(node) or any(ast.unparse(base) == "NamedTuple" for base in node.bases)


def _fields(node: ast.ClassDef) -> Iterator[tuple[str, str, bool, ast.expr | None]]:
    """``(name, annotation, is a constructor parameter, default)`` of each
    field the class itself declares, in order."""
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        annotation = ast.unparse(statement.annotation)
        if annotation.startswith(("ClassVar", "typing.ClassVar")):
            continue
        value = statement.value
        init = not (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                    and any(keyword.arg == "init" and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False for keyword in value.keywords))
        yield statement.target.id, annotation, init, value


def _classes(trees: dict[str, ast.Module]) -> dict[str, ast.ClassDef]:
    """``{simple name: class}`` of the module-level classes whose name is
    defined once in the package, for resolving bases."""
    found: dict[str, list[ast.ClassDef]] = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(node)
    return {name: nodes[0] for name, nodes in found.items() if len(nodes) == 1}


def _all_fields(node: ast.ClassDef, classes: dict[str, ast.ClassDef]
                ) -> dict[str, bool]:
    """``{field name: is a constructor parameter}`` in dataclass order:
    inherited fields first, a redeclared field keeping its place."""
    fields: dict[str, bool] = {}
    for base in node.bases:
        parent = classes.get(ast.unparse(base))
        if parent is not None and parent is not node and _is_record(parent):
            fields.update(_all_fields(parent, classes))
    fields.update((name, init) for name, _, init, _ in _fields(node))
    return fields


def _init_parameters(node: ast.ClassDef, classes: dict[str, ast.ClassDef]
                    ) -> list[str] | None:
    """The constructor's parameter names, or ``None`` when the class neither
    defines one nor inherits one from a class of the package."""
    for statement in node.body:
        if isinstance(statement, FUNCTIONS) and statement.name == "__init__":
            args = statement.args
            names = [arg.arg for arg in (*args.posonlyargs, *args.args)]
            names += [f"*{args.vararg.arg}"] if args.vararg else []
            names += [arg.arg for arg in args.kwonlyargs]
            names += [f"**{args.kwarg.arg}"] if args.kwarg else []
            return names[1:]
    if _is_record(node):
        return [name for name, init in _all_fields(node, classes).items() if init]
    for base in node.bases:
        parent = classes.get(ast.unparse(base))
        if parent is not None and parent is not node:
            return _init_parameters(parent, classes)
    return None


def _class_lines(node: ast.ClassDef, qualname: str,
                 classes: dict[str, ast.ClassDef]) -> Iterator[str]:
    bases = ", ".join(ast.unparse(base) for base in (*node.bases, *node.keywords))
    yield f"{qualname} {_decorators(node)}class({bases})"
    parameters = _init_parameters(node, classes)
    if parameters is not None:
        yield f"{qualname} init {len(parameters)}: {', '.join(parameters)}"
    if _is_record(node):
        for name, annotation, init, value in _fields(node):
            default = f" = {ast.unparse(value)}" if init and value is not None else ""
            yield f"{qualname}.{name} {'field' if init else 'state'}: {annotation}{default}"
    yield from _definition_lines(node.body, qualname + ".", classes)


def _definition_lines(body: list[ast.stmt], prefix: str,
                      classes: dict[str, ast.ClassDef]) -> Iterator[str]:
    for node in body:
        if isinstance(node, FUNCTIONS) and _public(node.name):
            yield f"{prefix}{node.name} {_signature(node)}"
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            yield from _class_lines(node, prefix + node.name, classes)


def render(trees: dict[str, ast.Module]) -> str:
    """The manifest of ``{module name: parsed tree}``, one sorted line per entry."""
    classes = _classes(trees)
    lines = [f"{module} module" for module in trees]
    for module, tree in trees.items():
        lines.extend(_definition_lines(tree.body, module + ".", classes))
    return "".join(f"{line}\n" for line in sorted(lines))


def sections(manifest: str) -> dict[str, str]:
    """``{module: its lines}`` of a manifest.  A line belongs to the longest
    module of the manifest that its qualified name starts with."""
    lines = manifest.splitlines(keepends=True)
    modules = {line.removesuffix(" module\n") for line in lines if line.endswith(" module\n")}
    found: dict[str, str] = {}
    for line in lines:
        parts = line.split(" ", 1)[0].split(".")
        owner = next((".".join(parts[:end]) for end in range(len(parts), 0, -1)
                      if ".".join(parts[:end]) in modules), "")
        found[owner] = found.get(owner, "") + line
    return found


def diff(committed: str, rendered: str) -> str:
    """A unified diff from the committed manifest to a fresh render, with
    the command that regenerates the file; empty when they are equal."""
    lines = list(difflib.unified_diff(committed.splitlines(keepends=True),
                                      rendered.splitlines(keepends=True),
                                      "docs/surface.txt (committed)",
                                      "docs/surface.txt (rendered from src/repro)"))
    if not lines:
        return ""
    return "".join(lines) + f"\nThe surface changed; regenerate the manifest with: {REGENERATE}\n"


def _layer_lines(root: Path) -> list[str]:
    """Physical lines of ``src/repro`` per side of :data:`LAYERS`, with the
    per-package counts under each total."""
    per_package = dict.fromkeys(LAYERS, 0)
    for module, path in module_paths(root / "src").items():
        per_package[package_of(module)] += path.read_bytes().count(b"\n")
    lines = []
    for layer in dict.fromkeys(LAYERS.values()):
        packages = [package for package in LAYERS if LAYERS[package] == layer]
        lines.append(f"{layer} physical lines: "
                     f"{sum(per_package[package] for package in packages)}")
        lines += [f"{layer} {package} physical lines: {per_package[package]}"
                  for package in packages]
    return lines


def figures(trees: dict[str, ast.Module], root: Path = REPO_ROOT) -> list[str]:
    """Physical lines of :data:`LINE_COUNTED` and of each side of
    :data:`LAYERS`, the field count of each config class and the
    constructor parameter count of each class."""
    newline = b"\n"
    lines = [f"{tree} physical lines: "
             f"{sum(path.read_bytes().count(newline) for path in (root / tree).rglob('*.py'))}"
             for tree in LINE_COUNTED]
    lines += _layer_lines(root)
    classes = _classes(trees)
    counts = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            if node.name.endswith("Config") and _is_record(node):
                lines.append(f"{node.name} fields: {len(_all_fields(node, classes))}")
            parameters = _init_parameters(node, classes)
            if parameters is not None:
                counts.append(f"{module}.{node.name} init parameters: {len(parameters)}")
    return lines + sorted(counts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--figures", action="store_true",
                        help="print line counts, config field counts and init-parameter counts"
                             " instead of writing docs/surface.txt")
    args = parser.parse_args(argv)
    trees = parse_package()
    if args.figures:
        print("\n".join(figures(trees)))
    else:
        MANIFEST.write_text(render(trees), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
