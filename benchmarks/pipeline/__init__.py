"""One pipeline benchmark: four workloads, seven end-to-end metrics, a layer budget.

Run it from the repository root (see ``README.md`` in this directory)::

    python3 -m benchmarks.pipeline                       # all four workloads
    python3 -m benchmarks.pipeline --workload replay --seed 7 --seconds 20 --trace 0
    python3 -m benchmarks.pipeline compare A.json B.json

The package measures ``src/repro`` strictly from outside: it calls public
functions on generated inputs and, for the traced run, assigns timing
closures over the bound public methods of the live instances.
"""

import sys
from pathlib import Path

#: The workloads, in the order BENCHMARK.json declares them.
WORKLOADS: tuple[str, ...] = ("campaign", "replay", "rebuild-churn", "live-query")

#: The checkout the benchmark runs in (``benchmarks/pipeline`` sits two below).
ROOT = Path(__file__).resolve().parents[2]

# BENCHMARK.json's command may name nothing outside ``paths``, so it cannot
# set PYTHONPATH=src; the package puts the program under test on the path.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
