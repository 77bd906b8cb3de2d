"""Determinism rules: each forbidden entropy/clock entry point is detected.

The deterministic packages are clean today, so every rule is proven the
mutation way: a known-good fixture yields zero findings, then a one-line
mutation makes the rule fire.
"""

from __future__ import annotations

import pytest

from repro.devtools.lint.determinism import DeterminismChecker

from lint_fixtures import make_module, rules_of

GOOD = """
import random
import time

from repro.util.rng import SeededRNG


def jitter(seed: int) -> float:
    rng = random.Random(seed)          # seeded: fine
    return rng.random()


def forked(rng: SeededRNG) -> float:
    return rng.fork("loss").random()


def stall_deadline() -> float:
    return time.monotonic() + 5.0      # monotonic: duration, not wall clock
"""


def check(source: str, module: str = "repro.workload.fixture"):
    checker = DeterminismChecker()
    return list(checker.check_module(make_module(source, module=module)))


class TestGoodFixture:
    def test_seeded_and_monotonic_are_clean(self):
        assert check(GOOD) == []

    def test_out_of_scope_module_is_ignored(self):
        noisy = "import random\nvalue = random.random()\n"
        assert check(noisy, module="repro.analysis.fixture") == []
        assert check(noisy, module="repro.devtools.fixture") == []


class TestMutationsFire:
    @pytest.mark.parametrize("mutation, rule", [
        ("leak = random.random()", "determinism/unseeded-random"),
        ("leak = random.randint(0, 9)", "determinism/unseeded-random"),
        ("leak = random.Random()", "determinism/unseeded-random"),
        ("random.seed(42)", "determinism/global-seed"),
        ("import uuid\nleak = uuid.uuid4()", "determinism/entropy"),
        ("import os\nleak = os.urandom(8)", "determinism/entropy"),
        ("import secrets\nleak = secrets.token_bytes(4)", "determinism/entropy"),
        ("leak = time.time()", "determinism/wall-clock"),
        ("leak = time.time_ns()", "determinism/wall-clock"),
        ("from datetime import datetime\nleak = datetime.now()",
         "determinism/wall-clock"),
        ("from datetime import date\nleak = date.today()",
         "determinism/wall-clock"),
    ])
    def test_one_line_mutation_is_caught(self, mutation, rule):
        findings = check(GOOD + "\n" + mutation + "\n")
        assert rules_of(findings) == [rule]

    @pytest.mark.parametrize("package", ["repro.hpcsim", "repro.workload",
                                         "repro.faults", "repro.transport"])
    def test_every_contract_package_is_in_scope(self, package):
        findings = check("import random\nleak = random.random()\n",
                         module=f"{package}.fixture")
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_seeded_random_constructor_stays_clean(self):
        assert check("import random\nrng = random.Random(7)\n") == []

    def test_wall_clock_message_points_at_the_pipeline_benchmark(self):
        (finding,) = check(GOOD + "\nleak = time.time()\n")
        assert "benchmarks/pipeline" in finding.message

    def test_finding_carries_location(self):
        findings = check(GOOD + "\nleak = time.time()\n")
        assert findings[0].line == len(GOOD.lstrip("\n").splitlines()) + 2
        assert findings[0].family == "determinism"
