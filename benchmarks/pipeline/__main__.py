"""Command line of the pipeline benchmark (see README.md in this directory)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from . import ROOT, WORKLOADS, compare, harness

#: Set-ups per workload: ``setup_s`` is their median.  A quick set-up (the
#: campaign's is 0.1 s) is repeated until the set-ups fill the floor.
MIN_SETUPS, MAX_SETUPS, SETUP_FLOOR_S = 3, 15, 2.0
#: Fewest repetitions a median is reported of.
MIN_REPETITIONS = 5


def run(args: argparse.Namespace) -> int:
    """Set up, repeat round-robin, report.

    With ``--workload`` this is the driver's contract: one workload, repeated
    until ``--seconds`` are up, one JSON object as the last line.  Without,
    all four workloads take turns, so that drift of a shared host hits them
    equally, and every repetition is followed by a traced one.
    """
    from . import inputs   # imports src/repro

    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace == 1 or not args.workload
    whys = {entry["name"]: entry["why"] for entry in harness.manifest()["workloads"]}
    with harness.WorkDirectory() as directory:
        all_series = [harness.Series(name, args.seed, inputs.SIZES, directory)
                      for name in names]
        for series in all_series:
            while len(series.setup_s) < MIN_SETUPS or (
                    len(series.setup_s) < MAX_SETUPS and sum(series.setup_s) < SETUP_FLOOR_S):
                series.set_up()
        start, rounds, elapsed = perf_counter(), 0, 0.0
        while rounds < MIN_REPETITIONS or (
                args.workload and elapsed + elapsed / rounds <= args.seconds):
            for series in all_series:
                series.repeat(traced=False)
                if traced:
                    series.repeat(traced=True)
            rounds += 1
            elapsed = perf_counter() - start
        results = {series.workload: harness.aggregate(series, whys[series.workload])
                   for series in all_series}
    document = {"fingerprint": harness.fingerprint(args.seed), "workloads": results}
    # The report goes to stderr when stdout ends with the driver's JSON line.
    report = sys.stderr if args.workload else sys.stdout
    print(json.dumps(document["fingerprint"]), file=report)
    for result in results.values():
        harness.print_result(result, report)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1), encoding="utf-8")
    if args.workload:
        print(harness.contract_line(results[args.workload],
                                    "per_layer" if traced else "end_to_end"))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.pipeline",
                                     description=__doc__)
    parser.add_argument("command", nargs="?", choices=("compare", "rep"),
                        help="compare two --out files; 'rep' is the internal child entry")
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload time-boxed (the driver's contract)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: how long to keep repeating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return compare.main(*args.files)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.command == "rep":
        return harness.child_main(args.workload, args.inputs, args.trace == 1)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
