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

After the budget comes each workload's per-refresh split, read from the
document's ``per_layer`` p50s: the three sub-spans of a dashboard refresh
(:data:`REFRESH_PARTS`) with their shares of the sum -- the figure the
per-refresh arm of the perf gate reads -- and :data:`REFRESH_PULLS`, the
delta pulls timed inside them, on a line of its own.  Last comes each
workload's per-identify split at the reference host speed, so that two runs
on hosts of different speed split alike: the round is the end-to-end
:data:`IDENTIFY` (an untraced median, already corrected for the host), the
search build is the traced ``per_layer`` :data:`IDENTIFY_BUILD` divided by
:data:`HOST_SLOWDOWN`, and the rest of the round is the one minus the
other; the build's share of the round follows -- the figure the per-metric
arm of the perf gate reads for ``identify_s``.  The build is still a traced
figure, so it carries the tracing overhead.  A figure a document lacks (an
untraced run, a workload with no refresh) is left out.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

#: The benchmark's own probe span: time spent measuring, not in a layer.
PROBE = "trace.probe"
#: The ``per_layer`` p50s of a dashboard refresh's sub-spans, which sum to it.
REFRESH_PARTS = ("analysis.live_sync_ms_p50", "analysis.live_views_ms_p50",
                 "db.gold_query_ms_p50")
#: The delta pulls per refresh: timed inside the parts, so never added to them.
REFRESH_PULLS = "ingest.snapshot_delta_ms_p50"
#: One identification round at the reference host speed (an ``end_to_end``
#: metric), the traced search build inside it as the clock read it (a
#: ``per_layer`` metric), and how much slower than the reference the host was.
IDENTIFY = "identify_s"
IDENTIFY_BUILD = "analysis.search_build_s"
HOST_SLOWDOWN = "trace.host_slowdown"


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


def refresh_split(document: dict) -> dict[str, dict[str, float]]:
    """``{workload: {figure: ms}}`` of :data:`REFRESH_PARTS` and
    :data:`REFRESH_PULLS`, each where the document has a value for it."""
    splits = {}
    for name, workload in document["workloads"].items():
        per_layer = workload.get("per_layer", {})
        figures = {key: per_layer[key]["value"] for key in (*REFRESH_PARTS, REFRESH_PULLS)
                   if per_layer.get(key, {}).get("value") is not None}
        if figures:
            splits[name] = figures
    return splits


def _parts(figures: dict[str, float]) -> dict[str, float]:
    return {key: figures[key] for key in REFRESH_PARTS if key in figures}


def refresh_one(splits: dict[str, dict[str, float]]) -> list[str]:
    """The per-refresh lines printed for one run."""
    lines = []
    for workload, figures in splits.items():
        parts = _parts(figures)
        share = shares(parts)
        lines.append(f"== {workload}  (per refresh, p50 ms; share of the parts' "
                     f"sum: {sum(parts.values()):.3f} ms)")
        for key in sorted(parts, key=lambda name: (-parts[name], name)):
            lines.append(f"   {key:<30}{parts[key]:>9.3f}{share[key]:>8.1%}")
        if REFRESH_PULLS in figures:
            lines.append(f"   {REFRESH_PULLS:<30}{figures[REFRESH_PULLS]:>9.3f}"
                         "  (pulls, inside the parts)")
    return lines


def refresh_two(first: dict[str, dict[str, float]],
                second: dict[str, dict[str, float]]) -> list[str]:
    """The per-refresh lines printed for two runs, per workload both have."""
    def move(label: str, x: float, y: float) -> str:
        return f"   {label:<30}{x:>9.3f}{y:>9.3f}{y - x:>+10.3f}"

    lines = []
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        parts_a, parts_b = _parts(a), _parts(b)
        share_a, share_b = shares(parts_a), shares(parts_b)
        lines.append(f"== {workload}  (per refresh, p50 ms; share of the parts' sum)")
        lines.append(f"   {'figure':<30}{'A':>9}{'B':>9}{'B - A':>10}"
                     f"{'A share':>9}{'B share':>9}")
        for key in REFRESH_PARTS:
            if key in a or key in b:
                lines.append(move(key, a.get(key, 0.0), b.get(key, 0.0))
                             + f"{share_a.get(key, 0.0):>9.1%}{share_b.get(key, 0.0):>9.1%}")
        lines.append(move("sum", sum(parts_a.values()), sum(parts_b.values())))
        if REFRESH_PULLS in a or REFRESH_PULLS in b:
            lines.append(move(REFRESH_PULLS, a.get(REFRESH_PULLS, 0.0),
                              b.get(REFRESH_PULLS, 0.0)))
    return lines


def identify_split(document: dict) -> dict[str, dict[str, float]]:
    """``{workload: {figure: value}}``: the search ``build`` and the ``rest``
    of the round in ms at the reference host speed and the build's ``share``
    of the round, each where the document has what it takes."""
    def value(metrics: dict, key: str) -> float | None:
        return metrics.get(key, {}).get("value")

    splits = {}
    for name, workload in document["workloads"].items():
        per_layer = workload.get("per_layer", {})
        build, host = value(per_layer, IDENTIFY_BUILD), value(per_layer, HOST_SLOWDOWN)
        round_s = value(workload.get("end_to_end", {}), IDENTIFY)
        figures = {}
        if build is not None and host:
            figures["build"] = build / host * 1e3
            if round_s is not None:
                figures["rest"] = round_s * 1e3 - figures["build"]
                if round_s:
                    figures["share"] = figures["build"] / (round_s * 1e3)
        if figures:
            splits[name] = figures
    return splits


#: The per-identify rows: figure, label and format spec.
_IDENTIFY_ROWS = (("build", f"{IDENTIFY_BUILD} / host (ms)", ".3f"),
                  ("rest", f"{IDENTIFY} - build (ms)", ".3f"),
                  ("share", "build share", ".1%"))


def identify_one(splits: dict[str, dict[str, float]]) -> list[str]:
    """The per-identify lines printed for one run."""
    lines = []
    for workload, figures in splits.items():
        lines.append(f"== {workload}  (per identify round, at the reference host speed)")
        lines += [f"   {label:<36}{figures[key]:>9{spec}}"
                  for key, label, spec in _IDENTIFY_ROWS if key in figures]
    return lines


def identify_two(first: dict[str, dict[str, float]],
                 second: dict[str, dict[str, float]]) -> list[str]:
    """The per-identify lines printed for two runs, per workload both have."""
    lines = []
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        lines.append(f"== {workload}  (per identify round, at the reference host speed)")
        lines.append(f"   {'figure':<36}{'A':>9}{'B':>9}{'B - A':>10}")
        lines += [f"   {label:<36}{a[key]:>9{spec}}{b[key]:>9{spec}}{b[key] - a[key]:>+10{spec}}"
                  for key, label, spec in _IDENTIFY_ROWS if key in a and key in b]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: layer_budget.py RUN.json | layer_budget.py A.json B.json",
              file=sys.stderr)
        return 2
    documents = [json.loads(Path(path).read_text(encoding="utf-8")) for path in argv]
    runs = [layer_self_times(document) for document in documents]
    splits = [refresh_split(document) for document in documents]
    identifies = [identify_split(document) for document in documents]
    if len(documents) == 1:
        lines = report_one(*runs) + refresh_one(*splits) + identify_one(*identifies)
    else:
        lines = (report_two(*runs) + refresh_two(*splits)
                 + identify_two(*identifies))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
