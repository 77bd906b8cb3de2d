"""The documentation checker itself is part of the tier-1 surface.

Running it here means a PR that breaks a README link or renames an example
fails the test suite locally, not just the CI docs job.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_documentation_is_clean(check_docs):
    errors = []
    for doc in check_docs.DOC_FILES:
        errors.extend(check_docs.check_file(check_docs.REPO_ROOT / doc))
    assert errors == []


def test_checker_detects_stale_references(check_docs, tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "[dead](missing.md) and `examples/does_not_exist.py`\n"
        '(docs/architecture.md, "No such section")\n'
        "```python\nfrom repro import NotARealName\n```\n",
        encoding="utf-8")
    errors = check_docs.check_file(bad)
    assert len(errors) == 4


def test_checker_resolves_backticked_dotted_names(check_docs, tmp_path):
    doc = tmp_path / "names.md"
    doc.write_text("`repro.db.tiered`, `repro.core.framework.SirenFramework` and "
                   "`repro.devtools.lint`\n", encoding="utf-8")
    assert check_docs.check_file(doc) == [f"{doc}: unresolved name -> repro.devtools.lint"]


def test_checker_resolves_bare_class_attributes(check_docs, tmp_path):
    """``Class.attr`` names resolve on the ``repro`` class of that name: a
    renamed method fires; fields, ``__init__`` attributes, call spellings
    and classes ``repro`` does not define pass."""
    doc = tmp_path / "attrs.md"
    doc.write_text(
        "`MessageStore.load_processes_since`, `IncrementalConsolidator.snapshot_delta(cursor)`,"
        " `IncrementalConsolidator.store`, `MessageStore.tiered`, `ExecutableCategory.PYTHON`,"
        " `Path.exists`, `CHANGES.md` and `MessageStore.load_processes_after(rowid)`\n",
        encoding="utf-8")
    assert check_docs.check_file(doc) == [
        f"{doc}: unresolved attribute -> MessageStore.load_processes_after"]


def test_main_exit_status(check_docs):
    assert check_docs.main() == 0


def test_checker_reads_source_docstrings_and_comments(check_docs, tmp_path):
    """A ``docs/`` or ``tests/`` path a docstring, comment or literal names
    must exist, and a section pointer must name a heading of its file, even
    when it wraps a line or an f-string splits it."""
    passing = tmp_path / "passing.py"
    passing.write_text(
        '"""Pinned by ``tests/util/test_check_docs.py`` (``docs/architecture.md``,\n'
        '"The streaming\n'
        'ingest spine")."""\n'
        '# see (docs/architecture.md, "Parallelism: measured and removed")\n'
        'WHERE = f"{1} (docs/architecture.md, \\"One ingest " "path\\")"\n'
        'DATA = "/users/alice/tests/run.in"\n',
        encoding="utf-8")
    assert check_docs.check_source(passing) == []
    firing = tmp_path / "firing.py"
    firing.write_text(
        '"""Pinned by ``tests/util/test_gone.py``."""\n'
        '#: measured in (docs/architecture.md,\n'
        '#: "No such section").\n'
        'WHERE = f"{1} (docs/architecture.md, \\"Gone " "too\\")"\n',
        encoding="utf-8")
    assert check_docs.check_source(firing) == [
        f"{firing}: missing path -> tests/util/test_gone.py",
        f'{firing}: no such heading -> docs/architecture.md, "Gone too"',
        f'{firing}: no such heading -> docs/architecture.md, "No such section"']
