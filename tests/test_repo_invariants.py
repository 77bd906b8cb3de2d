"""Invariants of the shipped package, checked over its parsed source.

Each guarantee is one function over ``(tree, module_name)``, shown to fire on
one deliberate violation per rule.  ``determinism``: the one-seed packages
read no global RNG, OS entropy or wall clock.  ``knobs``: every field of
``CampaignConfig`` is read.
``concurrency``: a module cache has a ``*_clear`` hook naming it (a compare
LRU shared across campaigns once skewed their counters), the receiving side
counts what it catches, and nothing forks, pools or queues.  ``counters``:
the statistics keys emitted are those :mod:`repro.util.counters` declares.
``dependencies``: the package imports no third-party code but ``numpy``, and
tests and benchmarks none but what ``requirements-test.txt`` (CI's install
list) names -- an undeclared ``networkx`` import once stopped CI's tier-1.
``reachable``: every public function, class and method of the package is
named somewhere the system runs from -- the package, the examples, the
benchmarks or the scripts -- not only in ``tests/``.  ``layers``: no SIREN
module imports the substrate that stands in for the supercomputer, but
through the edges :data:`CROSSINGS` names -- the analysis once labelled
Table 6 with the corpus's own toolchain table.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib.util
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.util.counters import COUNTER_PREFIXES, COUNTERS, assert_registered_counters
from repro.workload.campaign import CampaignConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
_spec = importlib.util.spec_from_file_location("surface", REPO_ROOT / "scripts" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)


@pytest.fixture(scope="module")
def trees() -> dict[str, ast.Module]:
    """``{module name: parsed tree}`` of every file under ``src/repro``."""
    return {".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"):
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "repro").rglob("*.py"))}


def _mutated(trees: dict[str, ast.Module], module: str, old: str, new: str,
             ) -> dict[str, ast.Module]:
    """``trees`` with the one occurrence of ``old`` in ``module`` replaced."""
    source = (SRC / (module.replace(".", "/") + ".py")).read_text(encoding="utf-8")
    assert source.count(old) == 1
    return {**trees, module: ast.parse(source.replace(old, new))}


def _in(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def _last(node: ast.expr) -> str:
    """The terminal name of ``node`` (``functools.lru_cache()`` -> ``lru_cache``)."""
    node = node.func if isinstance(node, ast.Call) else node
    return (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else "")


# --------------------------------------------------------------- determinism #
DETERMINISTIC = ("repro.hpcsim", "repro.workload", "repro.transport")
ENTROPY_OR_WALL_CLOCK = frozenset({
    "uuid.uuid1", "uuid.uuid4", "os.urandom", "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "date.today"})


def determinism(tree: ast.Module, module: str) -> list[str]:
    """Any ``random.*`` call but a seeded ``random.Random(seed)``, ``secrets.*``,
    and entropy or wall-clock reads, in the one-seed packages.  Monotonic
    clocks time stalls and never feed records, so they pass."""
    if not _in(module, DETERMINISTIC):
        return []
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        head = name.rpartition(".")[0]
        seeded = name == "random.Random" and (node.args or node.keywords)
        if ((head in ("random", "secrets") and not seeded)
                or ".".join(name.split(".")[-2:]) in ENTROPY_OR_WALL_CLOCK):
            found.append(f"{module}:{node.lineno} calls {name}()")
    return found


# --------------------------------------------------------------- concurrency #
SWALLOW_SCOPE = ("repro.transport", "repro.ingest")
NO_WORKERS = ("multiprocessing", "queue", "concurrent.futures")
MUTATORS = frozenset({"append", "add", "update", "setdefault", "pop", "popitem",
                      "extend", "insert", "appendleft", "discard", "remove"})
CONTAINER_CALLS = frozenset({"dict", "list", "set", "deque", "defaultdict",
                             "OrderedDict", "Counter"})
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _root(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _runtime_mutations(tree: ast.Module) -> set[str | None]:
    """Root names mutated inside functions and classes (not at import)."""
    names: set[str | None] = set()
    for node in (sub for top in tree.body if isinstance(top, (*FUNCTIONS, ast.ClassDef))
                 for sub in ast.walk(top)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            names.add(_root(node.func.value))
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        names.update(_root(t) for t in targets if isinstance(t, ast.Subscript))
    return names


def concurrency(tree: ast.Module, module: str) -> list[str]:
    """Bare ``except:``, an ``except Exception`` on the receiving side that
    neither re-raises nor counts (``+=``), worker/queue imports, and module
    caches no ``*_clear`` hook names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            found.append(f"{module}:{node.lineno} bare except")
        elif isinstance(node, ast.ExceptHandler) and _in(module, SWALLOW_SCOPE):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if (any(_last(t) in ("Exception", "BaseException") for t in types) and not any(
                    isinstance(sub, ast.Raise) or (isinstance(sub, ast.AugAssign)
                                                   and isinstance(sub.op, ast.Add))
                    for sub in ast.walk(node))):
                found.append(f"{module}:{node.lineno} except Exception is not counted")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if node.level == 0 else [])
            found += [f"{module}:{node.lineno} imports {name}" for name in names
                      if _in(name, NO_WORKERS)]
    functions = [node for node in tree.body if isinstance(node, FUNCTIONS)]
    cleared = {sub.id for function in functions
               if "_clear" in function.name or function.name.startswith("clear_")
               for sub in ast.walk(function) if isinstance(sub, ast.Name)}
    cached = {function.name for function in functions
              if any(_last(dec) in ("lru_cache", "cache") for dec in function.decorator_list)}
    containers = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and (isinstance(node.value, CONTAINER_NODES)
                       or (isinstance(node.value, ast.Call)
                           and _last(node.value) in CONTAINER_CALLS))
                  for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                  if isinstance(target, ast.Name)}
    caches = cached | (containers & _runtime_mutations(tree))
    return found + [f"{module}: module cache {name} has no *_clear hook naming it"
                    for name in sorted(caches - cleared)]


# -------------------------------------------------------------- dependencies #
def _declared(requirements: Path) -> frozenset[str]:
    """The import names of the distributions a requirements file lists, each
    without its version specifier (``numpy>=2.0`` is ``numpy``)."""
    return frozenset(name.replace("-", "_").lower() for line in
                     requirements.read_text(encoding="utf-8").splitlines()
                     if (name := re.split(r"[<>=!~;\[\s]", line.partition("#")[0].strip())[0]))


RUNTIME_DEPENDENCIES = frozenset({"numpy"})
TEST_DEPENDENCIES = _declared(REPO_ROOT / "requirements-test.txt")
#: The repository's own top-level names: the package, the benchmarks, and
#: what ``tests/`` puts on the path (``oracles``, ``conftest``, ...).
FIRST_PARTY = frozenset({"repro", "benchmarks"}
                        | {path.stem for path in (REPO_ROOT / "tests").iterdir()})


def _source_of(module: str) -> Path | None:
    """The file of a module of the repository (``src/`` first), or ``None``."""
    for root in (SRC, REPO_ROOT):
        base = root.joinpath(*module.split("."))
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                return path
    return None


def _from_module(node: ast.ImportFrom, module: str) -> str:
    """The absolute module a ``from`` import reads: a relative one resolved
    against the package of ``module`` (which may be a fixture, no file)."""
    if not node.level:
        return node.module or ""
    name = module.removesuffix(".__init__")
    source = _source_of(name)
    package = (name if source is not None and source.name == "__init__.py"
               else name.rpartition(".")[0]).split(".")
    return ".".join(filter(None, (".".join(package[:len(package) + 1 - node.level]),
                                  node.module)))


@functools.cache
def _bound_names(package: str) -> frozenset[str]:
    """The names a package offers a ``from . import``: its submodules and
    what its ``__init__`` binds at top level."""
    source = _source_of(package)
    if source is None or source.name != "__init__.py":
        return frozenset()
    names = {path.stem for path in source.parent.glob("*.py")}
    names |= {path.name for path in source.parent.iterdir() if (path / "__init__.py").exists()}
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return frozenset(names)


def dependencies(tree: ast.Module, module: str) -> list[str]:
    """Imports, anywhere in the module, of a top-level name that is neither
    the standard library, the repository's own nor declared: ``numpy`` for
    the package, ``requirements-test.txt`` for everything else.  A relative
    import is the repository's own only where it resolves to something
    there: a module, or a name its package's ``__init__`` binds."""
    allowed = RUNTIME_DEPENDENCIES if _in(module, ("repro",)) else TEST_DEPENDENCIES
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = _from_module(node, module)
            missing = ([f"{base}.{alias.name}" for alias in node.names
                        if alias.name not in _bound_names(base)]
                       if node.module is None else [] if _source_of(base) else [base])
            found += [f"{module}:{node.lineno} imports {name} (no such module)"
                      for name in missing]
            continue
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [f"{module}:{node.lineno} imports {top}" for top in
                  (name.partition(".")[0] for name in names)
                  if top not in sys.stdlib_module_names | FIRST_PARTY | allowed]
    return found


# -------------------------------------------------------------------- layers #
#: The SIREN -> substrate imports that are left, each for its reason.
CROSSINGS = {
    ("repro.core.framework", "repro.hpcsim.cluster"):
        "the one adapter: deploy() hooks the collector onto a Cluster",
    ("repro.collector.hooks", "repro.hpcsim.filesystem"):
        "the collector reads executables through VirtualFilesystem until its process protocol",
    ("repro.collector.hooks", "repro.hpcsim.process"):
        "the hook takes a ProcessContext until the collector's process protocol",
    ("repro.collector.fuzzy", "repro.hpcsim.filesystem"):
        "ArtifactHasher's path tier keys on VirtualFile.version, which stat does not carry",
}
MODULES = frozenset(surface.module_paths(SRC))


def _crossings(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """``(line, substrate module)`` of each import of the substrate by the
    SIREN module ``module``; a name imported from a module is that module,
    and a relative import is resolved against ``module``'s package."""
    if surface.LAYERS.get(surface.package_of(module)) != "SIREN":
        return []
    found = []
    for node in ast.walk(tree):
        source = _from_module(node, module) if isinstance(node, ast.ImportFrom) else ""
        targets = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [name if name in MODULES else source for name in
                         (f"{source}.{alias.name}" for alias in node.names)]
                   if isinstance(node, ast.ImportFrom) else [])
        found += [(node.lineno, target) for target in dict.fromkeys(targets)
                  if surface.LAYERS.get(surface.package_of(target)) == "substrate"]
    return found


def layers(tree: ast.Module, module: str) -> list[str]:
    """Imports of a substrate module (:data:`surface.LAYERS`) by a SIREN
    one, but for :data:`CROSSINGS`.  The substrate may import SIREN."""
    return [f"{module}:{line} imports {target} (substrate)"
            for line, target in _crossings(tree, module)
            if (module, target) not in CROSSINGS]


def stale_crossings(trees: dict[str, ast.Module]) -> list[str]:
    """Entries of :data:`CROSSINGS` that no module still imports: the list
    can only shrink."""
    used = {(module, target) for module, tree in trees.items()
            for _, target in _crossings(tree, module)}
    return [f"{module} -> {target}" for module, target in CROSSINGS
            if (module, target) not in used]


# ----------------------------------------------------------------- reachable #
#: Where a name counts as reached: the non-``__init__`` files under these
#: roots.  An ``__init__`` only re-exports, and ``tests/`` is not the system.
REACHING_ROOTS = ("src/repro", "examples", "benchmarks", "scripts")
#: The public definitions nothing reaches, each kept for its reason.
UNREACHED_ON_PURPOSE = {
    "normalize_cache_clear": "the concurrency rule wants a clear hook naming each cache",
    "assert_registered_counters": "the live counter check; the telemetry spine retires it",
    "live_analysis": "the campaign's documented live view; one accumulator reworks it",
}
_WORD = re.compile(r"\w+")


def _words(tree: ast.Module) -> dict[str, list[int]]:
    """``{word: lines}`` of every name, attribute and imported name and every
    word of a string in ``tree``.  A docstring is prose about code, and a
    definition's own name is not a use of it, so neither counts."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *FUNCTIONS, ast.ClassDef))
                  and ast.get_docstring(node, clean=False) is not None}
    words: dict[str, list[int]] = defaultdict(list)
    for node in ast.walk(tree):
        found = ([node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute)
                 else node.name.split(".") if isinstance(node, ast.alias)
                 else _WORD.findall(node.value) if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and id(node) not in docstrings else [])
        for word in found:
            words[word].append(node.lineno)
    return words


@functools.cache
def _reaching_words() -> dict[str, dict[str, list[int]]]:
    """``{module: _words(tree)}`` of every file a name counts as reached from."""
    return {".".join(path.relative_to(REPO_ROOT).with_suffix("").parts).removeprefix("src."):
            _words(ast.parse(path.read_text(encoding="utf-8")))
            for root in REACHING_ROOTS for path in sorted((REPO_ROOT / root).rglob("*.py"))
            if path.name != "__init__.py"}


def _public_definitions(body: list[ast.stmt], prefix: str = ""):
    """``(qualified name, node)`` of the public functions, classes and methods."""
    for node in body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(node.body, f"{prefix}{node.name}.")


def reachable(tree: ast.Module, module: str) -> list[str]:
    """Public definitions of the package whose name is a word nowhere outside
    their own lines: not in ``tree`` (which stands in for ``module``), and not
    in any other file under :data:`REACHING_ROOTS`.  Comments are not in the
    tree and docstrings are not read (see :func:`_words`), so neither counts.
    The check is by word, so a dead definition that shares its name with a
    live one's use passes."""
    if not _in(module, ("repro",)):
        return []
    others = [words for name, words in _reaching_words().items() if name != module]
    own = _words(tree)
    found = []
    for qualname, node in _public_definitions(tree.body):
        first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
        if not (node.name in UNREACHED_ON_PURPOSE
                or any(node.name in words for words in others)
                or any(not first <= line <= node.end_lineno
                       for line in own.get(node.name, ()))):
            found.append(f"{module}:{first} {qualname} is named only by tests")
    return found


# --------------------------------------------------------------------- knobs #
CONFIG_CLASSES = frozenset(cls.__name__ for cls in CampaignConfig.__mro__
                           if dataclasses.is_dataclass(cls))


def knob_reads(tree: ast.Module, module: str) -> set[str]:
    """Names read as ``config.<name>`` (``self.config.<name>``, ...) or as
    ``self.<name>`` inside a config class."""
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _last(node.value) == "config"}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES:
            reads |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and _last(node.value) == "self"}
    return reads


def unread_knobs(trees: dict[str, ast.Module], config_cls: type) -> set[str]:
    read = set().union(*(knob_reads(tree, module) for module, tree in trees.items()))
    return {field.name for field in dataclasses.fields(config_cls)} - read


# ------------------------------------------------------------------ counters #
def counter_keys(tree: ast.Module, module: str) -> set[str]:
    """Dict-literal keys and ``stats[key] = ...`` targets of the
    ``statistics()``/``fault_counters()`` emitters in ``module``; an f-string
    key is its literal prefix plus ``*``, and a variable key is checked where
    it is spelled out."""
    keys: set[str] = set()
    for function in ast.walk(tree):
        if not (isinstance(function, ast.FunctionDef)
                and function.name in ("statistics", "fault_counters")):
            continue
        for node in ast.walk(function):
            candidates = (
                [key for key in node.keys if key is not None] if isinstance(node, ast.Dict)
                else [t.slice for t in node.targets if isinstance(t, ast.Subscript)]
                if isinstance(node, ast.Assign) else [])
            for key in candidates:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                elif isinstance(key, ast.JoinedStr):
                    head = key.values[0] if key.values else None
                    keys.add((head.value if isinstance(head, ast.Constant) else "") + "*")
    return keys


def counter_drift(trees: dict[str, ast.Module]) -> list[str]:
    declared = set(COUNTERS) | {prefix + "*" for prefix in COUNTER_PREFIXES}
    emitted = set().union(*(counter_keys(tree, module) for module, tree in trees.items()))
    return ([f"undeclared {key!r}" for key in sorted(emitted - declared)]
            + [f"unemitted {key!r}" for key in sorted(declared - emitted)])


# --------------------------------------------------------------------- tests #
@pytest.mark.parametrize("check", [determinism, concurrency, dependencies, layers, reachable])
def test_shipped_tree_is_clean(trees, check):
    assert len(trees) >= 75
    assert [line for module, tree in trees.items() for line in check(tree, module)] == []


@pytest.mark.parametrize("root", ["tests", "benchmarks"])
def test_tests_and_benchmarks_import_only_declared_dependencies(root):
    assert RUNTIME_DEPENDENCIES <= TEST_DEPENDENCIES
    paths = sorted((REPO_ROOT / root).rglob("*.py"))
    assert len(paths) >= 9
    assert [line for path in paths for line in dependencies(
        ast.parse(path.read_text(encoding="utf-8")),
        ".".join(path.relative_to(REPO_ROOT).with_suffix("").parts))] == []


COUNTED = ("def send(self, channel, payload):\n    try:\n        channel.push(payload)\n"
           "    except Exception:\n        self.send_errors += 1\n")
UNCOUNTED = COUNTED.replace("self.send_errors += 1", "pass")
CACHE = "_CACHE = {}\n\ndef put(key):\n    _CACHE[key] = 1\n"
VIOLATIONS = {
    "random.random()": (determinism, "import random\nx = random.random()\n"),
    "random.Random()": (determinism, "import random\nrng = random.Random()\n"),
    "random.seed": (determinism, "import random\nrandom.seed(42)\n"),
    "uuid.uuid4": (determinism, "import uuid\nx = uuid.uuid4()\n"),
    "secrets.*": (determinism, "import secrets\nx = secrets.token_bytes(4)\n"),
    "time.time": (determinism, "import time\nx = time.time()\n"),
    "bare except": (concurrency, "try:\n    pass\nexcept:\n    pass\n"),
    "uncounted except Exception": (concurrency, UNCOUNTED),
    "mutated module dict": (concurrency, CACHE),
    "lru_cache": (concurrency,
                  "import functools\n\n@functools.lru_cache(maxsize=8)\ndef f(x):\n    return x\n"),
    "hook exempts only what it names": (
        concurrency, CACHE + "_OTHER = []\n\ndef put_other(x):\n    _OTHER.append(x)\n\n"
        "def cache_clear():\n    _CACHE.clear()\n"),
    "worker import": (concurrency, "from concurrent.futures import ProcessPoolExecutor\n"),
    "undeclared dependency": (dependencies, "import os\nimport networkx as nx\n"),
    "test-only dependency": (dependencies, "def f():\n    from hypothesis import given\n"),
    "analysis reads the corpus": (layers, ("repro.analysis.compilers", "from repro.db.store",
                                           "from repro.corpus.toolchains import TOOLCHAINS\n"
                                           "from repro.db.store")),
    "collector reads the simulator": (layers, ("repro.collector.classify", "from enum import Enum\n",
                                               "from enum import Enum\n\n"
                                               "from repro.hpcsim import filesystem\n")),
    "ingest reads the simulator": (layers, ("repro.ingest.records", "from repro.transport.chunking",
                                            "import repro.hpcsim.memmap\n"
                                            "from repro.transport.chunking")),
    "SIREN builds executables": (layers, "from repro.elf import builder, reader\n"),
    "unreached method": (reachable, ("repro.util.tables", "    def add_row(",
                                     "    def never_called(self):\n        pass\n\n"
                                     "    def add_row(")),
    "unreached function": (reachable, ("repro.util.tables", "class TextTable",
                                       "def orphan_helper():\n    pass\n\n\nclass TextTable")),
    "unreached class": (reachable, "class NeverBuilt:\n    pass\n"),
    "named only in its own body": (
        reachable, "def recurse_forever(n):\n    return recurse_forever(n - 1)\n"),
    "named only in a comment": (reachable, "def orphan_helper():\n    pass\n# orphan_helper\n"),
    "named only in a docstring": (
        reachable, ("repro.util.tables", "class TextTable:\n    \"\"\"A small",
                    "def orphan_helper():\n    pass\n\n\n"
                    "class TextTable:\n    \"\"\"See :func:`orphan_helper`.  A small")),
    "twins that name only each other": (
        reachable, "def twin_totals():\n    pass\n\n\ndef _report():\n"
                   "    def twin_totals():\n        pass\n"),
}


@pytest.mark.parametrize("check, source", VIOLATIONS.values(), ids=VIOLATIONS.keys())
def test_each_rule_fires_on_one_violation(trees, check, source):
    """``source`` is a fixture module, or ``(module, old, new)``: one edit of
    a shipped module."""
    if isinstance(source, tuple):
        module, tree = source[0], _mutated(trees, *source)[source[0]]
    else:
        module, tree = "repro.transport.fixture", ast.parse(source)
    assert len(check(tree, module)) == 1


@pytest.mark.parametrize("check, source, module", [
    (determinism, "import random, time\nrng = random.Random(7)\nt = time.monotonic()\n",
     "repro.workload.fixture"),
    (determinism, "import random\nx = random.random()\n", "repro.analysis.fixture"),
    (concurrency, COUNTED, "repro.transport.fixture"),
    (concurrency, UNCOUNTED, "repro.analysis.fixture"),
    (concurrency, CACHE + "\ndef cache_clear():\n    _CACHE.clear()\n", "repro.fixture"),
    (concurrency, "_TABLE = {1: 'a'}\n\ndef get(key):\n    return _TABLE[key]\n",
     "repro.fixture"),
    (dependencies, "import numpy as np\nfrom collections import deque\nfrom repro.db import store\n",
     "repro.fixture"),
    (dependencies, "import pytest\nfrom hypothesis import given\nfrom oracles.wire import encode\n",
     "tests.transport.fixture"),
    (layers, "from repro.elf.reader import ELFFile\n", "repro.hpcsim.dynlinker"),
    (layers, "from repro.hpcsim.cluster import Cluster\n", "repro.core.framework"),
    (layers, "from repro.workload import DeploymentCampaign\n", "repro"),
    (layers, "from repro.elf import reader, structures\n", "repro.collector.fixture"),
    (reachable, "def build_tiered_store(kind):\n    return kind\n", "repro.db.tiered"),
    (reachable, "def audit_python_packages(records):\n    return records\n",
     "repro.analysis.pythonpkgs"),
    (reachable, "def normalize_cache_clear():\n    pass\n", "repro.hashing.compare_engine"),
    (reachable, "def layer_self_times(trace):\n    return trace\n", "repro.fixture"),
    (reachable, "def strings_blob(data):\n    return data\n", "repro.elf.strings"),
    (reachable, "def only_here():\n    pass\n\nVALUE = only_here()\n", "repro.fixture"),
    (reachable, "def _hidden():\n    pass\n", "repro.fixture"),
    (reachable, "class TextTable:\n    def __len__(self):\n        return 0\n",
     "repro.util.tables"),
    (reachable, "def orphan_helper():\n    pass\n", "tests.fixture"),
], ids=["seeded-and-monotonic", "out-of-scope-random", "counted-except",
        "out-of-scope-except", "cleared-cache", "read-only-table", "runtime-dependency",
        "test-dependency", "substrate-reads-siren", "allowed-crossing", "exempt-re-export",
        "siren-half-of-elf", "reached-from-the-benchmark", "reached-from-an-example",
        "unreached-on-purpose", "reached-from-a-script", "reached-from-another-module",
        "reached-in-its-own-module", "private-name", "dunder-method", "outside-the-package"])
def test_allowed_forms_pass(check, source, module):
    assert check(ast.parse(source), module) == []


def test_every_module_is_on_one_side_of_the_line(trees):
    assert {surface.package_of(module) for module in trees} == set(surface.LAYERS)
    assert [module for module in trees
            if surface.package_of(module) == "repro" and module != "repro"] == []


def test_every_allowed_crossing_is_still_needed(trees):
    assert stale_crossings(trees) == []
    unhooked = _mutated(trees, "repro.core.framework",
                        "from repro.hpcsim.cluster import Cluster\n", "")
    assert stale_crossings(unhooked) == ["repro.core.framework -> repro.hpcsim.cluster"]


def test_every_knob_is_read(trees):
    @dataclasses.dataclass(frozen=True)
    class ToyConfig(CampaignConfig):
        never_read: int = 0

    assert unread_knobs(trees, CampaignConfig) == set()
    assert unread_knobs(trees, ToyConfig) == {"never_read"}


@pytest.mark.parametrize("module, old, new, drift", [
    (None, "", "", []),
    ("repro.db.tiered", '"rollup_syncs":', '"rollup_sync":',
     ["undeclared 'rollup_sync'", "unemitted 'rollup_syncs'"]),
    ("repro.workload.campaign", 'f"fault_{name}"', 'f"faults_{name}"',
     ["undeclared 'faults_*'", "unemitted 'fault_*'"]),
], ids=["shipped", "renamed-tiered-store-key", "undeclared-fstring-prefix"])
def test_emitted_counters_are_the_declared_ones(trees, module, old, new, drift):
    assert counter_drift(_mutated(trees, module, old, new) if module else trees) == drift


def test_a_live_dict_with_an_undeclared_key_is_refused():
    assert_registered_counters({"ingest_records_built": 1, "fault_dropped": 1}, context="ok")
    with pytest.raises(AssertionError, match="ingest_made_up"):
        assert_registered_counters({"ingest_made_up": 1}, context="fixture")
