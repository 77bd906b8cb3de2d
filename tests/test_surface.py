"""The committed surface manifest, ``docs/surface.txt``, is current.

``scripts/surface.py`` renders it from the parsed source of ``src/repro``.
A stale manifest fails the whole-file test and one test per module whose
surface moved, each with the diff.  Five edits of the parsed package each
change the manifest in a line that names the edit; small packages pin what
the renderer writes for each kind of entry.
"""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

from test_repo_invariants import _mutated, surface, trees  # noqa: F401  (trees: a fixture)

_SCRIPT = surface.__file__
_COMMITTED = surface.MANIFEST.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def rendered() -> str:
    return surface.render(surface.parse_package())


def test_the_committed_manifest_is_current(rendered):
    stale = surface.diff(_COMMITTED, rendered)
    if stale:
        pytest.fail(stale, pytrace=False)


@pytest.mark.parametrize("module", sorted({*surface.sections(_COMMITTED), *surface.module_paths()}
                                          - {""}))
def test_each_module_surface_is_current(rendered, module):
    stale = surface.diff(surface.sections(_COMMITTED).get(module, ""),
                         surface.sections(rendered).get(module, ""))
    if stale:
        pytest.fail(stale, pytrace=False)


#: ``(module, old, new)`` edits of one shipped module (``old`` is ``None``
#: for a new module whose source is ``new``), each with a line its diff adds.
MUTATIONS = {
    "a removed method comes back": (
        "repro.hashing.ssdeep", "    def compare(self,",
        "    def compare_cached(self, first, second):\n        return 0\n\n"
        "    def compare(self,",
        "+repro.hashing.ssdeep.FuzzyHasher.compare_cached def(self, first, second)"),
    "a constant becomes a parameter again": (
        "repro.hashing.ssdeep", "    def __init__(self) -> None:",
        "    def __init__(self, min_block_size: int = 3) -> None:",
        "+repro.hashing.ssdeep.FuzzyHasher init 1: min_block_size"),
    "a config field is added": (
        "repro.core.config", "    rollups: bool = False\n",
        "    rollups: bool = False\n    hash_workers: int = 1\n",
        "+repro.core.config.SirenConfig.hash_workers field: int = 1"),
    "a removed module comes back": (
        "repro.core.deployment", None, "class SirenDeployment:\n    pass\n",
        "+repro.core.deployment module"),
    "a counter becomes a constructor argument": (
        "repro.analysis.live", "    syncs: int = field(init=False, default=0)",
        "    syncs: int = 0",
        "+repro.analysis.live.LiveAnalysis.syncs field: int = 0"),
}


@pytest.mark.parametrize("module, old, new, added", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_each_edit_of_the_surface_is_a_diff_that_names_it(trees, module, old, new, added):
    mutated = ({**trees, module: ast.parse(new)} if old is None
               else _mutated(trees, module, old, new))
    stale = surface.diff(surface.render(trees), surface.render(mutated))
    assert added in stale.splitlines()
    assert surface.REGENERATE in stale


#: ``{module: source}`` packages and the lines of their manifest besides
#: one ``module`` line per module.
PACKAGES = {
    "a function with its decorators and signature": (
        {"pkg": "@cache\ndef f(a, *, b: int = 1) -> str: ...\nasync def g(): ..."},
        ["pkg.f @cache def(a, *, b: int=1) -> str", "pkg.g async def()"]),
    "private names are left out and dunders kept": (
        {"pkg": "def _f(): ...\nclass _H: ...\nclass C:\n def _p(self): ...\n def __len__(self): ..."},
        ["pkg.C class()", "pkg.C.__len__ def(self)"]),
    "a constructor's parameters in signature order": (
        {"pkg": "class C:\n def __init__(self, a, /, b, *args, c, **kw): ..."},
        ["pkg.C class()", "pkg.C init 5: a, b, *args, c, **kw",
         "pkg.C.__init__ def(self, a, /, b, *args, c, **kw)"]),
    "a dataclass's fields and state": (
        {"pkg": "@dataclass\nclass D:\n a: int\n b: str = 'x'\n"
                " hits: int = field(init=False, default=0)\n KIND: ClassVar[str] = 'd'"},
        ["pkg.D @dataclass class()", "pkg.D init 2: a, b", "pkg.D.a field: int",
         "pkg.D.b field: str = 'x'", "pkg.D.hits state: int"]),
    "inherited dataclass fields come first": (
        {"pkg": "@dataclasses.dataclass\nclass B:\n a: int\n b: int = 0\n"
                "@dataclass(frozen=True)\nclass C(B):\n c: int = 1\n a: int = 2"},
        ["pkg.B @dataclasses.dataclass class()", "pkg.B init 2: a, b", "pkg.B.a field: int",
         "pkg.B.b field: int = 0", "pkg.C @dataclass(frozen=True) class(B)",
         "pkg.C init 3: a, b, c", "pkg.C.a field: int = 2", "pkg.C.c field: int = 1"]),
    "a named tuple's annotated names are its fields": (
        {"pkg": "class P(NamedTuple):\n x: int\n y: int = 0"},
        ["pkg.P class(NamedTuple)", "pkg.P init 2: x, y", "pkg.P.x field: int", "pkg.P.y field: int = 0"]),
    "a constructor inherited from another module": (
        {"pkg.a": "class B:\n def __init__(self, x): ...", "pkg.b": "class C(B): ..."},
        ["pkg.a.B class()", "pkg.a.B init 1: x", "pkg.a.B.__init__ def(self, x)",
         "pkg.b.C class(B)", "pkg.b.C init 1: x"]),
    "a base named twice is not resolved": (
        {"pkg.a": "class B:\n def __init__(self, x): ...", "pkg.b": "class B: ...\nclass C(B): ..."},
        ["pkg.a.B class()", "pkg.a.B init 1: x", "pkg.a.B.__init__ def(self, x)",
         "pkg.b.B class()", "pkg.b.C class(B)"]),
    "a nested public class and class keywords": (
        {"pkg": "class O(A, metaclass=M):\n class I:\n  def m(self): ..."},
        ["pkg.O class(A, metaclass=M)", "pkg.O.I class()", "pkg.O.I.m def(self)"]),
}


@pytest.mark.parametrize("sources, lines", PACKAGES.values(), ids=PACKAGES.keys())
def test_the_renderer_writes_each_kind_of_entry(sources, lines):
    rendered = surface.render({module: ast.parse(source) for module, source in sources.items()})
    assert rendered.splitlines() == sorted([*lines, *(f"{module} module" for module in sources)])


def test_a_line_belongs_to_its_longest_module(rendered):
    assert "".join(surface.sections(rendered).values()) == rendered
    assert rendered.splitlines() == sorted(set(rendered.splitlines()))
    small = surface.render({"pkg": ast.parse("def f(): ..."), "pkg.sub": ast.parse("def g(): ...")})
    assert surface.sections(small) == {"pkg": "pkg module\npkg.f def()\n",
                                       "pkg.sub": "pkg.sub module\npkg.sub.g def()\n"}


def test_the_figures_agree_with_the_manifest(rendered):
    figures = surface.figures(surface.parse_package())
    assert [line.split(" physical lines: ")[0] for line in figures[:3]] == list(surface.LINE_COUNTED)
    counts = {line.split(" init parameters: ")[0]: int(line.split(": ")[1])
              for line in figures if " init parameters: " in line}
    assert counts["repro.ingest.incremental.IncrementalConsolidator"] == 2
    for name, count in counts.items():
        assert f"\n{name} init {count}:" in f"\n{rendered}"
    for config in ("repro.core.config.SirenConfig", "repro.workload.campaign.CampaignConfig"):
        assert f"{config.rpartition('.')[2]} fields: {counts[config]}" in figures


def test_writing_the_manifest_writes_the_render(rendered, tmp_path, monkeypatch):
    monkeypatch.setattr(surface, "MANIFEST", tmp_path / "surface.txt")
    assert surface.main([]) == 0
    assert (tmp_path / "surface.txt").read_text(encoding="utf-8") == rendered


def test_the_script_runs_without_importing_the_package(tmp_path):
    probe = (f"import runpy, sys\nsys.argv[1:] = ['--figures']\ntry:\n"
             f"    runpy.run_path({str(_SCRIPT)!r}, run_name='__main__')\n"
             f"except SystemExit as exit:\n    assert exit.code == 0\n"
             f"assert not [name for name in sys.modules if name.split('.')[0] == 'repro']")
    result = subprocess.run([sys.executable, "-I", "-c", probe], cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "src/repro physical lines: " in result.stdout
