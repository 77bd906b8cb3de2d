"""Each check of ``test_repo_invariants`` rule by rule, on fixture sources.

``test_repo_invariants`` runs the checks over the shipped tree and shows one
violation per rule firing; here every forbidden form, every in-scope package
and every allowed neighbour of a rule is pinned, so a check that widens or
narrows shows up as one named case.
"""

from __future__ import annotations

import ast

import pytest

from test_repo_invariants import (_mutated, concurrency, counter_drift, counter_keys,
                                  dependencies, determinism, knob_reads, layers)
from test_repo_invariants import trees  # noqa: F401  (the shipped-tree fixture)


# --------------------------------------------------------------- determinism #
@pytest.mark.parametrize("source", [
    "import random\nx = random.randint(0, 9)\n",
    "import random\nx = random.choice([1, 2])\n",
    "import uuid\nx = uuid.uuid1()\n",
    "import os\nx = os.urandom(8)\n",
    "import secrets\nx = secrets.randbelow(10)\n",
    "import time\nx = time.time_ns()\n",
    "from datetime import datetime\nx = datetime.now()\n",
    "import datetime\nx = datetime.datetime.utcnow()\n",
    "from datetime import date\nx = date.today()\n",
], ids=["randint", "choice", "uuid1", "urandom", "secrets-randbelow", "time_ns",
        "datetime-now", "datetime-utcnow", "date-today"])
def test_every_entropy_and_wall_clock_read_fires(source):
    assert len(determinism(ast.parse(source), "repro.workload.fixture")) == 1


@pytest.mark.parametrize("module", ["repro.hpcsim.fixture", "repro.workload.fixture",
                                    "repro.hpcsim.faults", "repro.transport.fixture",
                                    "repro.transport"])
def test_every_one_seed_package_is_in_scope(module):
    assert len(determinism(ast.parse("import random\nx = random.random()\n"), module)) == 1


@pytest.mark.parametrize("module", ["repro.hpcsimx.fixture", "repro.db.fixture"])
def test_other_packages_may_read_the_clock(module):
    assert determinism(ast.parse("import time\nx = time.time()\n"), module) == []


@pytest.mark.parametrize("source", [
    "import random\nrng = random.Random(seed=3)\n",
    "import time\nt = time.perf_counter()\n",
    "def f(rng):\n    return rng.random()\n",
    "def f(self):\n    return self.rng.choice([1, 2])\n",
], ids=["seed-keyword", "perf_counter", "rng-instance", "rng-attribute"])
def test_seeded_generators_and_duration_clocks_pass(source):
    assert determinism(ast.parse(source), "repro.hpcsim.fixture") == []


def test_a_determinism_finding_names_module_line_and_call():
    source = "import time\n\n\nx = time.time()\n"
    assert determinism(ast.parse(source), "repro.hpcsim.faults") == [
        "repro.hpcsim.faults:4 calls time.time()"]


# --------------------------------------------------------------- concurrency #
def _handler(clause: str, body: str = "pass") -> str:
    return f"def f(self):\n    try:\n        risky()\n    {clause}:\n        {body}\n"


@pytest.mark.parametrize("source, module", [
    ("try:\n    pass\nexcept:\n    pass\n", "repro.analysis.fixture"),
    (_handler("except (ValueError, Exception)"), "repro.transport.fixture"),
    (_handler("except BaseException"), "repro.transport.fixture"),
    (_handler("except Exception as error", "log(error)"), "repro.ingest.fixture"),
    ("import multiprocessing\n", "repro.analysis.fixture"),
    ("import queue\n", "repro.ingest.fixture"),
    ("from multiprocessing.pool import ThreadPool\n", "repro.fixture"),
    ("import concurrent.futures\n", "repro.fixture"),
    ("import functools\n\n@functools.cache\ndef f(x):\n    return x\n", "repro.fixture"),
    ("from functools import lru_cache\n\n@lru_cache(maxsize=None)\ndef f(x):\n"
     "    return x\n", "repro.fixture"),
], ids=["bare-except-out-of-scope", "tuple-with-exception", "base-exception",
        "logged-not-counted-in-ingest", "multiprocessing", "queue", "pool-from-import",
        "concurrent-futures", "functools-cache", "bare-lru_cache"])
def test_every_concurrency_rule_form_fires(source, module):
    assert len(concurrency(ast.parse(source), module)) == 1


@pytest.mark.parametrize("source", [
    "_C = []\n\ndef put(x):\n    _C.append(x)\n",
    "_C = set()\n\ndef put(x):\n    _C.add(x)\n",
    "from collections import deque\n_C = deque()\n\ndef put(x):\n    _C.appendleft(x)\n",
    "from collections import defaultdict\n_C = defaultdict(list)\n\n"
    "def put(k, x):\n    _C[k].append(x)\n",
    "_C: dict[str, int] = {}\n\ndef put(k):\n    _C[k] += 1\n",
    "_C = {}\n\ndef drop(k):\n    del _C[k]\n",
    "_C = {}\n\ndef put(k, x):\n    return _C.setdefault(k, x)\n",
    "_C = {}\n\ndef put(other):\n    _C.update(other)\n",
    "import collections\n_C = collections.OrderedDict()\n\ndef evict():\n    _C.popitem()\n",
    "_C = {k: 0 for k in 'ab'}\n\nclass Holder:\n    def put(self, k):\n        _C[k] = 1\n",
], ids=["list-append", "set-add", "deque-appendleft", "defaultdict-item-append",
        "annotated-dict-augassign", "dict-del", "dict-setdefault", "dict-update",
        "ordereddict-popitem", "dictcomp-in-method"])
def test_every_runtime_mutation_of_a_module_container_fires(source):
    (finding,) = concurrency(ast.parse(source), "repro.fixture")
    assert "module cache _C has no *_clear hook" in finding


@pytest.mark.parametrize("source, module", [
    (_handler("except ValueError"), "repro.transport.fixture"),
    (_handler("except Exception as error", "log(error)\n        raise"),
     "repro.transport.fixture"),
    (_handler("except Exception", 'self.stats["errors"] += 1'), "repro.ingest.fixture"),
    ("from . import queue\n", "repro.transport.fixture"),
    ("import queue_utils\n", "repro.fixture"),
    ("_T = {}\n_T['a'] = 1\n", "repro.fixture"),
    ("def f():\n    seen = {}\n    seen['a'] = 1\n    return seen\n", "repro.fixture"),
    ("import functools\n\n@functools.lru_cache(maxsize=64)\ndef f(x):\n    return x\n\n\n"
     "def f_cache_clear():\n    f.cache_clear()\n", "repro.fixture"),
    ("_C = {}\n\ndef put(k):\n    _C[k] = 1\n\ndef clear_cache():\n    _C.clear()\n",
     "repro.fixture"),
], ids=["named-except", "reraise", "counted-in-a-dict", "relative-import-named-queue",
        "module-named-like-queue", "import-time-mutation", "function-local-dict",
        "lru_cache-with-hook", "clear_-prefixed-hook"])
def test_concurrency_neighbours_pass(source, module):
    assert concurrency(ast.parse(source), module) == []


# --------------------------------------------------------------------- knobs #
@pytest.mark.parametrize("source, reads", [
    ("def f(config):\n    return config.seed\n", {"seed"}),
    ("def f(self):\n    return self.config.scale\n", {"scale"}),
    ("def f(cfg):\n    return cfg.seed\n", set()),
    ("class SirenConfig:\n    def check(self):\n        return self.loss_rate\n",
     {"loss_rate"}),
    ("class Unrelated:\n    def check(self):\n        return self.loss_rate\n", set()),
], ids=["config-name", "self-config", "other-name", "self-in-config-class",
        "self-elsewhere"])
def test_knob_reads(source, reads):
    assert knob_reads(ast.parse(source), "repro.fixture") == reads


# ------------------------------------------------------------------ counters #
EMITTER = ('def statistics(self):\n    stats = {"alpha": self.alpha}\n'
           '    stats["beta"] = self.beta\n'
           '    for name, value in self.nested.items():\n'
           '        stats[f"ns_{name}"] = value\n    return stats\n')


@pytest.mark.parametrize("source, keys", [
    (EMITTER, {"alpha", "beta", "ns_*"}),
    (EMITTER.replace('f"ns_{name}"', 'f"{name}"'), {"alpha", "beta", "*"}),
    ("def fault_counters(self):\n    return {'dropped': self.dropped}\n", {"dropped"}),
    ("def helper(self):\n    return {'gamma': 1}\n", set()),
    ("def statistics(self):\n    merged = {'alpha': 0}\n    for name, v in self.parts:\n"
     "        merged[name] = v\n    return merged\n", {"alpha"}),
], ids=["literal-subscript-fstring", "fully-dynamic", "fault-counters",
        "non-emitter", "variable-keyed-fold"])
def test_counter_keys(source, keys):
    assert counter_keys(ast.parse(source), "repro.fixture") == keys


def test_a_fully_dynamic_key_is_undeclared(trees):
    toy = ast.parse(EMITTER.replace('f"ns_{name}"', 'f"{name}"').replace('"alpha"', '"records"')
                 .replace('"beta"', '"syncs"'))
    assert counter_drift({**trees, "repro.fixture": toy}) == ["undeclared '*'"]


@pytest.mark.parametrize("key", ["silver_rows", "rollup_rebuilds", "rollup_records_applied"])
def test_renaming_any_tiered_store_key_fires_both_ways(trees, key):
    mutated = _mutated(trees, "repro.db.tiered", f'"{key}":', f'"{key}_renamed":')
    assert counter_drift(mutated) == [f"undeclared '{key}_renamed'", f"unemitted '{key}'"]


def test_a_registration_nothing_emits_is_stale(trees):
    without = {module: tree for module, tree in trees.items() if module != "repro.db.tiered"}
    assert counter_drift(without) == [
        f"unemitted '{key}'" for key in sorted(
            ["silver_rows", "rollup_syncs", "rollup_records_applied", "rollup_rebuilds"])]


# ---------------------------------------------------------- relative imports #
@pytest.mark.parametrize("check, source, module, finding", [
    (layers, "from ..hpcsim import filesystem\n", "repro.collector.fixture",
     "repro.collector.fixture:1 imports repro.hpcsim.filesystem (substrate)"),
    (layers, "from .. import corpus\n", "repro.analysis.fixture",
     "repro.analysis.fixture:1 imports repro.corpus (substrate)"),
    (dependencies, "from . import networkx\n", "repro.fixture",
     "repro.fixture:1 imports repro.networkx (no such module)"),
    (dependencies, "from .networkx import Graph\n", "repro.analysis.fixture",
     "repro.analysis.fixture:1 imports repro.analysis.networkx (no such module)"),
], ids=["layers-parent-package", "layers-grandparent", "dependencies-name",
        "dependencies-module"])
def test_a_relative_import_is_checked_as_what_it_resolves_to(check, source, module, finding):
    assert check(ast.parse(source), module) == [finding]


@pytest.mark.parametrize("check, source, module", [
    (layers, "from ..elf import reader\n", "repro.collector.fixture"),
    (layers, "from . import filesystem\n", "repro.hpcsim.fixture"),
    (dependencies, "from .ssdeep import FuzzyHasher\nfrom . import engine\n",
     "repro.hashing.fixture"),
    (dependencies, "from . import FuzzyHasher\n", "repro.hashing.fixture"),
    (dependencies, "from . import ssdeep\n", "repro.hashing"),
    (dependencies, "from . import ROOT, trace\n", "benchmarks.pipeline.fixture"),
    (dependencies, "from . import WORKLOADS\n", "benchmarks.pipeline.__init__"),
], ids=["layers-siren-half-of-elf", "layers-within-the-substrate", "dependencies-modules",
        "dependencies-init-binding", "dependencies-from-a-package-init",
        "dependencies-benchmark-package", "dependencies-benchmark-init"])
def test_a_relative_import_of_the_repository_passes(check, source, module):
    assert check(ast.parse(source), module) == []
