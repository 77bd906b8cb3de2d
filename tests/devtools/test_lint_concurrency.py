"""Concurrency rules: resettable module caches and exception hygiene."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools.lint.concurrency import ConcurrencyChecker

from lint_fixtures import make_module, rules_of


def check(source: str, module: str = "repro.transport.fixture"):
    checker = ConcurrencyChecker()
    return list(checker.check_module(make_module(source, module=module)))


class TestBareExcept:
    def test_bare_except_fires_everywhere(self):
        source = """
def f():
    try:
        pass
    except:
        pass
"""
        assert rules_of(check(source, module="repro.analysis.fixture")) == [
            "concurrency/bare-except"]

    def test_named_except_is_clean(self):
        source = """
def f():
    try:
        pass
    except ValueError:
        pass
"""
        assert check(source) == []


class TestSwallowedException:
    GOOD = """
class Sender:
    def __init__(self):
        self.send_errors = 0

    def send(self, channel, payload):
        try:
            channel.push(payload)
        except Exception:
            self.send_errors += 1     # counted: visible in statistics
"""

    def test_counted_swallow_is_clean(self):
        assert check(self.GOOD) == []

    def test_uncounted_swallow_fires_in_scope(self):
        mutated = self.GOOD.replace("self.send_errors += 1     "
                                    "# counted: visible in statistics", "pass")
        assert rules_of(check(mutated)) == ["concurrency/swallowed-exception"]

    def test_reraise_is_clean(self):
        source = """
def f(log):
    try:
        risky()
    except Exception as error:
        log(error)
        raise
"""
        assert check(source) == []

    def test_out_of_scope_modules_may_swallow(self):
        mutated = self.GOOD.replace("self.send_errors += 1     "
                                    "# counted: visible in statistics", "pass")
        assert check(mutated, module="repro.analysis.fixture") == []

    def test_tuple_catch_including_exception_fires(self):
        source = """
def f():
    try:
        risky()
    except (ValueError, Exception):
        pass
"""
        assert rules_of(check(source)) == ["concurrency/swallowed-exception"]


class TestModuleMutableCache:
    CACHED = """
_CACHE: dict[int, str] = {}


def lookup(key):
    value = _CACHE.get(key)
    if value is None:
        value = str(key)
        _CACHE[key] = value
    return value
"""

    def test_mutated_cache_without_hook_fires(self):
        assert rules_of(check(self.CACHED)) == ["concurrency/module-mutable-cache"]

    def test_clear_hook_referencing_the_cache_exempts(self):
        source = self.CACHED + """

def lookup_cache_clear():
    _CACHE.clear()
"""
        assert check(source) == []

    def test_hook_only_exempts_what_it_clears(self):
        source = self.CACHED + """
_OTHER: dict[int, str] = {}


def touch(key):
    _OTHER[key] = ""


def lookup_cache_clear():
    _CACHE.clear()
"""
        findings = check(source)
        assert rules_of(findings) == ["concurrency/module-mutable-cache"]
        assert "_OTHER" in findings[0].message

    def test_readonly_constant_is_clean(self):
        source = "_TABLE = {1: 'a', 2: 'b'}\n\ndef get(key):\n    return _TABLE[key]\n"
        assert check(source) == []

    def test_lru_cache_without_hook_fires(self):
        source = """
import functools


@functools.lru_cache(maxsize=64)
def normalize(text):
    return text.lower()
"""
        assert rules_of(check(source)) == ["concurrency/module-mutable-cache"]

    def test_lru_cache_with_clear_hook_is_clean(self):
        source = """
import functools


@functools.lru_cache(maxsize=64)
def normalize(text):
    return text.lower()


def normalize_cache_clear():
    normalize.cache_clear()
"""
        assert check(source) == []


class TestShippedTree:
    def test_no_module_imports_multiprocessing_or_queue(self):
        """Ingest, the job driver and hashing run in one interpreter: nothing
        under ``src/repro`` forks, pools or queues."""
        package = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                offenders.extend(
                    f"{path.relative_to(package)}:{node.lineno}" for name in names
                    if name.split(".")[0] in ("multiprocessing", "queue")
                    or name.startswith("concurrent.futures"))
        assert offenders == []
