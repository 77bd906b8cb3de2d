"""``compare A.json B.json``: did B get worse than A, pair by pair?

For every (end-to-end metric, workload) pair the bound in ``BENCHMARK.json``
decides: ``regressed`` when B's median is worse than A's by more than the
bound, ``improved`` when it is better by more than the bound, ``ok``
otherwise -- and ``unresolved`` when the run-to-run spread of either side
(interquartile distance of its repetitions over their median) is wider than
the bound or a side has fewer than three repetitions, unless every repetition
of one side beats every repetition of the other.  A metric that keeps coming
out ``unresolved`` is to be demoted to per-layer, not given a looser bound;
the pooled tails printed beside each verdict are the evidence to look at
first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from .harness import manifest
from .trace import spread

#: Fewest repetitions a spread can be taken of.
MIN_REPETITIONS = 3


def verdict(before: list[float], after: list[float], *, better: str, bound: float) -> str:
    """``ok`` / ``improved`` / ``regressed`` / ``unresolved`` for one pair.

    ``before`` and ``after`` are the per-repetition values of one metric in
    the two result documents.
    """
    if min(len(before), len(after)) < MIN_REPETITIONS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    first, second = statistics.median(before), statistics.median(after)
    change = sign * (second - first) / abs(first)
    if max(spread(before), spread(after)) > bound:
        # Too unsteady for the medians to mean anything; only a clean
        # separation of every run still counts, and only past the bound.
        if change > bound and all(sign * b > sign * a for a in before for b in after):
            return "improved"
        if change < -bound and all(sign * b < sign * a for a in before for b in after):
            return "regressed"
        return "unresolved"
    if change < -bound:
        return "regressed"
    if change > bound:
        return "improved"
    return "ok"


def compare(before: dict[str, Any], after: dict[str, Any],
            out: Any = sys.stdout) -> int:
    """Print one row per (metric, workload); returns the exit code."""
    regressed = False
    declarations = manifest()["end_to_end"]
    for side, document in (("A", before), ("B", after)):
        fingerprint = document["fingerprint"]
        print(f"{side}: sha={fingerprint['git_sha']} dirty={fingerprint['git_dirty']} "
              f"cpus={fingerprint['cpus']} python={fingerprint['python']} "
              f"seed={fingerprint['seed']}", file=out)
    for workload, first in before["workloads"].items():
        second = after["workloads"].get(workload)
        if second is None:
            print(f"{workload}: missing from B", file=out)
            regressed = True
            continue
        if (first["seed"], first["sizes"]) != (second["seed"], second["sizes"]):
            print(f"{workload}: A and B ran different inputs (seed {first['seed']} vs "
                  f"{second['seed']}, sizes {first['sizes']} vs {second['sizes']}): "
                  "nothing to compare", file=out)
            return 2
        noisy = [side for side, result in (("A", first), ("B", second)) if result["noisy"]]
        print(f"\n{workload}  host slowdown x{first['host_slowdown']:.2f} -> "
              f"x{second['host_slowdown']:.2f}"
              + (f"  (noisy host: {', '.join(noisy)})" if noisy else ""), file=out)
        for declaration in declarations:
            name = declaration["name"]
            a, b = first["end_to_end"][name], second["end_to_end"][name]
            outcome = verdict(a["reps"], b["reps"], better=declaration["better"],
                              bound=declaration["bound"])
            regressed = regressed or outcome == "regressed"
            tail = ""
            if "samples" in a:
                tail = (f"  pooled {a['pooled']:.4g} -> {b['pooled']:.4g} "
                        f"(n={a['samples']},{b['samples']})")
            print(f"  {outcome:<10} {name:<20} {a['value']:.4g} -> {b['value']:.4g} "
                  f"{declaration['unit']}  (bound {declaration['bound']:.0%}, spread "
                  f"{a['spread']:.1%} / {b['spread']:.1%}, n={a['n']},{b['n']}){tail}",
                  file=out)
        rate_a = first["failed_ops"] / max(1, first["ops"])
        rate_b = second["failed_ops"] / max(1, second["ops"])
        if rate_b > rate_a:
            print(f"  FLAG       failed_ops/ops rose: {rate_a:.4%} -> {rate_b:.4%}", file=out)
            regressed = True
        if first["dropped_knobs"] != second["dropped_knobs"]:
            print(f"  FLAG       dropped_knobs differ: {first['dropped_knobs']} -> "
                  f"{second['dropped_knobs']}", file=out)
        if first["counts"] != second["counts"]:
            print(f"  FLAG       exact counts differ: {first['counts']} -> "
                  f"{second['counts']}", file=out)
    return 1 if regressed else 0


def main(path_a: str, path_b: str) -> int:
    before = json.loads(Path(path_a).read_text(encoding="utf-8"))
    after = json.loads(Path(path_b).read_text(encoding="utf-8"))
    return compare(before, after)
