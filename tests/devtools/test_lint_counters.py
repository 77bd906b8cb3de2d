"""Counter-registry rules against a toy registry, plus the real-tree gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint.counters import CounterRegistryChecker
from repro.util.counters import (COUNTER_PREFIXES, COUNTERS,
                                 assert_registered_counters,
                                 is_registered_counter)

from lint_fixtures import make_module, rules_of

REGISTRY = {"alpha": "first toy counter", "beta": "second toy counter"}
PREFIXES = {"ns_": "namespaced re-exports"}

GOOD = """
def statistics(self):
    stats = {"alpha": self.alpha}
    stats["beta"] = self.beta
    for name, value in self.nested.items():
        stats[f"ns_{name}"] = value
    return stats
"""


def check(source: str, registry=REGISTRY, prefixes=PREFIXES):
    checker = CounterRegistryChecker(registry=registry, prefixes=prefixes)
    return list(checker.check_tree([make_module(source)]))


class TestToyRegistry:
    def test_consistent_emitter_is_clean(self):
        assert check(GOOD) == []

    def test_unregistered_literal_key_fires(self):
        mutated = GOOD.replace('"beta"', '"gamma"')
        findings = check(mutated)
        assert "counters/unregistered" in rules_of(findings)
        assert any("'gamma'" in f.message for f in findings)

    def test_unregistered_fstring_prefix_fires(self):
        mutated = GOOD.replace('f"ns_{name}"', 'f"other_{name}"')
        findings = check(mutated)
        assert rules_of(findings) == ["counters/unregistered-prefix"]

    def test_fully_dynamic_key_fires(self):
        mutated = GOOD.replace('f"ns_{name}"', 'f"{name}"')
        findings = check(mutated)
        assert rules_of(findings) == ["counters/unregistered-prefix"]
        assert "<dynamic>" in findings[0].message

    def test_stale_registration_fires(self):
        mutated = GOOD.replace('stats["beta"] = self.beta', "pass")
        findings = check(mutated)
        assert rules_of(findings) == ["counters/unused-registration"]
        assert "'beta'" in findings[0].message

    def test_non_stats_functions_are_ignored(self):
        source = "def helper(self):\n    return {'gamma': 1}\n"
        # no emitter in scope at all => no unused-registration sweep either
        assert check(source) == []

    def test_variable_keyed_folds_are_ignored(self):
        source = """
def statistics(self):
    merged = {"alpha": 0}
    for name, value in self.parts.items():
        merged[name] = merged.get(name, 0) + value
    return merged
"""
        findings = check(source, registry={"alpha": "doc"}, prefixes={})
        assert findings == []


class TestRuntimeRegistry:
    def test_direct_and_prefixed_keys_are_registered(self):
        assert is_registered_counter("records_built")
        assert is_registered_counter("ingest_records_built")
        assert is_registered_counter("fault_dropped")
        assert not is_registered_counter("made_up_counter")
        assert not is_registered_counter("ingest_made_up_counter")

    def test_assert_registered_counters_names_offenders(self):
        assert_registered_counters({"records_built": 3}, context="test")
        with pytest.raises(AssertionError, match="bogus_key"):
            assert_registered_counters({"bogus_key": 1}, context="test")

    def test_live_campaign_statistics_are_all_registered(self, campaign_result):
        assert_registered_counters(campaign_result.statistics(),
                                   context="CampaignResult.statistics()")


@pytest.fixture(scope="module")
def real_modules():
    from repro.devtools.lint.engine import iter_python_files, load_module

    root = Path(__file__).resolve().parents[2]
    return [load_module(path, root)
            for path in iter_python_files([root / "src" / "repro"])]


class TestRealTreeGate:
    def test_real_emitters_match_real_registry(self, real_modules):
        findings = list(CounterRegistryChecker().check_tree(real_modules))
        assert findings == []

    @pytest.mark.parametrize("key", ["silver_rows", "rollup_rebuilds",
                                     "rollup_records_applied", "rollup_syncs"])
    def test_renaming_a_tiered_store_key_fires_both_ways(self, real_modules, key):
        """``TieredStore`` keeps its counters as plain attributes that its
        ``statistics()`` reports, so this family alone keeps those names and
        the registry in step: a renamed key is unregistered, and the old
        registration is left unused."""
        tiered = next(m for m in real_modules if m.module == "repro.db.tiered")
        assert tiered.text.count(f'"{key}":') == 1
        mutated = make_module(tiered.text.replace(f'"{key}":', f'"{key}_renamed":'),
                              module=tiered.module, rel=tiered.rel)
        findings = list(CounterRegistryChecker().check_tree(
            [mutated if module is tiered else module for module in real_modules]))
        assert sorted(rules_of(findings)) == ["counters/unregistered",
                                              "counters/unused-registration"]
        assert any(f"'{key}_renamed'" in f.message and f.path == tiered.rel
                   for f in findings)
        assert any(f"'{key}'" in f.message for f in findings)

    def test_registry_docs_exist_for_every_key(self):
        assert all(isinstance(doc, str) and doc for doc in COUNTERS.values())
        assert all(prefix.endswith("_") for prefix in COUNTER_PREFIXES)
