#!/usr/bin/env python3
"""Which layer moved between two pipeline-benchmark runs.

``python scripts/layer_budget.py A.json B.json`` reads two documents written by
``python3 -m benchmarks.pipeline --out`` and prints, per workload, every layer's
``budget`` self time (summed over its callers) in A and in B beside the
difference, largest move first.  ``compare`` says which headline figure moved;
this says where the seconds went.  A report, never a verdict.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path


def layer_self_times(document: dict) -> dict[str, dict[str, float]]:
    """``{workload: {layer: self seconds}}`` from a ``--out`` document."""
    times: dict[str, dict[str, float]] = {}
    for name, workload in document["workloads"].items():
        layers: dict[str, float] = defaultdict(float)
        for row in workload.get("budget", ()):
            layers[row["layer"]] += row["self_s"]
        times[name] = dict(layers)
    return times


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: layer_budget.py A.json B.json", file=sys.stderr)
        return 2
    first, second = (layer_self_times(json.loads(Path(path).read_text(encoding="utf-8")))
                     for path in argv)
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        print(f"== {workload}  (budget self time, s)")
        print(f"   {'layer':<22}{'A':>9}{'B':>9}{'B - A':>10}")
        for layer in sorted(a.keys() | b.keys(),
                            key=lambda name: -abs(b.get(name, 0.0) - a.get(name, 0.0))):
            x, y = a.get(layer, 0.0), b.get(layer, 0.0)
            print(f"   {layer:<22}{x:>9.3f}{y:>9.3f}{y - x:>+10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
