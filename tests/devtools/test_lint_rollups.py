"""Rollup-counter rules against a toy registry, plus the real-tree gate."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint.rollups import RollupCounterChecker

from lint_fixtures import make_module, rules_of

REGISTRY = {"rollup_syncs": "toy sync counter",
            "rollup_dedup_skips": "toy dedup counter"}

GOOD = """
class Store:
    def __init__(self):
        self.counters = {"rollup_syncs": 0, "rollup_dedup_skips": 0}

    def sync(self, fresh):
        self.counters["rollup_syncs"] += 1
        if not fresh:
            self.counters["rollup_dedup_skips"] += 1
"""


def check(source: str, registry=REGISTRY):
    checker = RollupCounterChecker(registry=registry)
    return [finding for module in [make_module(source)]
            for finding in checker.check_module(module)]


class TestToyRegistry:
    def test_registered_increments_are_clean(self):
        assert check(GOOD) == []

    def test_typoed_increment_key_fires(self):
        mutated = GOOD.replace('self.counters["rollup_dedup_skips"] += 1',
                               'self.counters["rollup_dedup_skip"] += 1')
        findings = check(mutated)
        assert "rollups/unregistered-counter" in rules_of(findings)
        assert any("'rollup_dedup_skip'" in f.message for f in findings)

    def test_unregistered_init_dict_key_fires(self):
        mutated = GOOD.replace('"rollup_syncs": 0', '"rollup_boots": 0')
        findings = check(mutated)
        assert "rollups/unregistered-counter" in rules_of(findings)
        assert any("'rollup_boots'" in f.message for f in findings)

    def test_plain_assignment_is_also_traffic(self):
        source = GOOD + '\n    def reset(self):\n' \
                        '        self.counters["rollup_resets"] = 0\n'
        findings = check(source)
        assert rules_of(findings) == ["rollups/unregistered-counter"]

    def test_batch_increment_is_traffic_like_a_unit_one(self):
        source = GOOD + '\n    def batch(self, skipped):\n' \
                        '        self.counters["rollup_dedup_skips"] += skipped\n'
        assert check(source) == []
        typoed = source.replace('skips"] += skipped', 'skip"] += skipped')
        assert rules_of(check(typoed)) == ["rollups/unregistered-counter"]

    def test_computed_key_fires_dynamic(self):
        mutated = GOOD.replace('self.counters["rollup_syncs"] += 1',
                               'self.counters[name] += 1')
        findings = check(mutated)
        assert rules_of(findings) == ["rollups/dynamic-key"]

    def test_other_mappings_stay_out_of_scope(self):
        source = """
def fold(self):
    stats = {}
    for name, value in self.parts.items():
        stats[name] = stats.get(name, 0) + value
    stats["whatever"] = 1
    return stats
"""
        assert check(source) == []

    def test_bare_counters_variable_is_in_scope(self):
        source = 'counters = {"rollup_syncs": 0}\ncounters["bogus"] += 1\n'
        findings = check(source)
        assert rules_of(findings) == ["rollups/unregistered-counter"]

    def test_registry_module_itself_is_exempt(self):
        checker = RollupCounterChecker(registry=REGISTRY)
        module = make_module('counters = {"made_up": 0}\n',
                             module="repro.util.counters")
        assert list(checker.check_module(module)) == []


class TestRealTreeGate:
    def test_real_increment_sites_match_real_registry(self):
        from repro.devtools.lint.engine import iter_python_files, load_module

        root = Path(__file__).resolve().parents[2]
        modules = [load_module(path, root)
                   for path in iter_python_files([root / "src" / "repro"])]
        checker = RollupCounterChecker()
        findings = [finding for module in modules
                    for finding in checker.check_module(module)]
        assert findings == []
