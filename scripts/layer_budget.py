#!/usr/bin/env python3
"""Where a pipeline-benchmark run's time went, and which layer moved between two.

``python scripts/layer_budget.py RUN.json`` reads one document written by
``python3 -m benchmarks.pipeline --out`` and prints, per workload, every
layer's ``budget`` self time (summed over its callers) and its share of the
budget, largest first (ties by name).  ``python scripts/layer_budget.py
A.json B.json`` prints both runs' self times beside the difference and both
shares, largest move first.  ``compare`` says which headline figure moved;
this says where the seconds went.  A report, never a verdict.

``trace.probe`` -- the benchmark's own probes, timed so that a traced budget
still sums to the wall-clock -- is left out: every share is of the budget
net of the probe, the figure the perf gate in ``ROADMAP.md`` reads.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

#: The benchmark's own probe span: time spent measuring, not in a layer.
PROBE = "trace.probe"


def layer_self_times(document: dict) -> dict[str, dict[str, float]]:
    """``{workload: {layer: self seconds}}`` from a ``--out`` document,
    without :data:`PROBE`."""
    times: dict[str, dict[str, float]] = {}
    for name, workload in document["workloads"].items():
        layers: dict[str, float] = defaultdict(float)
        for row in workload.get("budget", ()):
            if row["layer"] != PROBE:
                layers[row["layer"]] += row["self_s"]
        times[name] = dict(layers)
    return times


def shares(layers: dict[str, float]) -> dict[str, float]:
    """Each layer's fraction of the summed self time (empty when it is zero)."""
    total = sum(layers.values())
    return {layer: seconds / total for layer, seconds in layers.items()} if total else {}


def report_one(times: dict[str, dict[str, float]]) -> list[str]:
    """The lines printed for one run."""
    lines = []
    for workload, layers in times.items():
        share = shares(layers)
        lines.append(f"== {workload}  (budget self time net of {PROBE}: "
                     f"{sum(layers.values()):.3f} s)")
        lines.append(f"   {'layer':<22}{'s':>9}{'share':>8}")
        for layer in sorted(layers, key=lambda name: (-layers[name], name)):
            lines.append(f"   {layer:<22}{layers[layer]:>9.3f}{share[layer]:>8.1%}")
    return lines


def report_two(first: dict[str, dict[str, float]],
               second: dict[str, dict[str, float]]) -> list[str]:
    """The lines printed for two runs, per workload both ran."""
    lines = []
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        share_a, share_b = shares(a), shares(b)
        lines.append(f"== {workload}  (budget self time, s; share net of {PROBE})")
        lines.append(f"   {'layer':<22}{'A':>9}{'B':>9}{'B - A':>10}{'A share':>9}{'B share':>9}")
        for layer in sorted(a.keys() | b.keys(),
                            key=lambda name: (-abs(b.get(name, 0.0) - a.get(name, 0.0)), name)):
            x, y = a.get(layer, 0.0), b.get(layer, 0.0)
            lines.append(f"   {layer:<22}{x:>9.3f}{y:>9.3f}{y - x:>+10.3f}"
                         f"{share_a.get(layer, 0.0):>9.1%}{share_b.get(layer, 0.0):>9.1%}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: layer_budget.py RUN.json | layer_budget.py A.json B.json",
              file=sys.stderr)
        return 2
    runs = [layer_self_times(json.loads(Path(path).read_text(encoding="utf-8")))
            for path in argv]
    print("\n".join(report_one(*runs) if len(runs) == 1 else report_two(*runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
