"""Repetitions in fresh child processes, and what the parent makes of them.

The parent generates a workload's inputs from the seed (``setup_s``), then
runs every repetition in a fresh child interpreter: the child runs a fixed
calibration loop, loads the inputs, collects garbage, runs the timed region
and reports its own peak resident set.  Nothing a repetition allocates, caches
or compiles can leak into the next one, and a noisy host shows up in the
calibration spread instead of silently in the medians.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from . import ROOT
from .trace import (PROBE_REFERENCE_MS, NullTracer, Tracer, corrected_spans,
                    highest_supported_percentile, percentile, spread, summarize)

#: BENCHMARK.json, the one place metric names, units, directions and bounds live.
MANIFEST = ROOT / "BENCHMARK.json"
#: Generated inputs live here, inside the checkout, for the length of a run.
WORK_ROOT = ROOT / ".bench_work"
#: Calibration spread above which a result is marked ``noisy``.
NOISE_LIMIT = 0.10
#: A child that has not finished by then is stuck, not slow.
CHILD_TIMEOUT_S = 170


def manifest() -> dict[str, Any]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# child side
# ---------------------------------------------------------------------- #
def calibrate() -> float:
    """A fixed piece of pure-Python work; its duration only changes with the host.

    Half arithmetic in a tight loop, half allocating, sorting and joining
    small objects: a busy neighbour slows memory traffic more than arithmetic
    (a campaign ran 1.6x slower in an hour in which the loop alone lost 10 %).
    It runs in a fresh child before any input is loaded, so nothing the
    program under test allocates can change its speed.
    """
    start = perf_counter()
    for _ in range(10):
        total = 0
        for value in range(15_000):
            total += value * value % 7
        items = [(index, str(index), {"a": index}) for index in range(2_500)]
        items.sort(key=lambda item: item[1])
        "|".join(item[1] for item in items).encode()
    return perf_counter() - start


def peak_rss_mb() -> float:
    """This process's own peak resident set (MiB).

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``exec``, so a
    child would report its parent's resident set at the time of the fork
    whenever that is larger than anything the child itself reaches.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024      # reported in kB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_main(workload: str, inputs_path: str, traced: bool) -> int:
    """One repetition; prints its result as the last line of stdout."""
    from . import inputs, workloads   # imports src/repro: child only

    calibration_s = calibrate()
    loaded = inputs.load(Path(inputs_path))
    tracer = Tracer() if traced else NullTracer()
    result = workloads.repetition(workload, loaded, tracer)
    result["calibration_s"] = calibration_s
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
def fingerprint(seed: int) -> dict[str, Any]:
    """Where and on what the numbers were taken."""
    try:
        import numpy
        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, check=True).stdout.strip()
            # Which tracked files differ from that commit (so a reader can
            # tell a changed benchmark from a changed program under test).
            dirty = [line[3:] for line in subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                text=True, capture_output=True, check=True).stdout.splitlines()]
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(), "git_sha": sha,
            "git_dirty": bool(dirty) if dirty is not None else None,
            "git_dirty_paths": dirty, "seed": seed}


@dataclass
class Series:
    """One workload's set-ups and repetitions within one parent run."""

    workload: str
    seed: int
    sizes: Any                       #: an ``inputs.Sizes``
    directory: Path
    inputs_path: Path | None = None
    setup_s: list[float] = field(default_factory=list)         #: at reference host speed
    setup_clock_s: list[float] = field(default_factory=list)   #: as the clock read
    corpus_build_s: list[float] = field(default_factory=list)
    untraced: list[dict[str, Any]] = field(default_factory=list)
    traced: list[dict[str, Any]] = field(default_factory=list)

    def set_up(self) -> None:
        """Generate the inputs once more (every call is a ``setup_s`` sample)."""
        from . import inputs

        self.inputs_path, laps = inputs.generate(
            self.workload, self.seed, self.sizes, self.directory)
        corrected = laps.corrected()
        self.setup_s.append(sum(map(sum, corrected.values())) / 1e3)
        self.setup_clock_s.append(sum(map(sum, laps.spans.values())) / 1e3)
        self.corpus_build_s.append(sum(corrected["build"]) / 1e3)

    def repeat(self, *, traced: bool) -> dict[str, Any]:
        """Run one repetition in a fresh child process."""
        command = [sys.executable, "-m", "benchmarks.pipeline", "rep",
                   "--workload", self.workload, "--inputs", str(self.inputs_path),
                   "--trace", "1" if traced else "0"]
        # Children share one bytecode cache inside the work directory, so
        # only the first of a run pays for compiling src/.
        environment = {key: value for key, value in os.environ.items()
                       if key != "PYTHONDONTWRITEBYTECODE"}
        environment["PYTHONPYCACHEPREFIX"] = str(self.directory / "pycache")
        # A random string-hash seed changes dict and set layouts from child
        # to child; pinned, the repetitions of a run differ by ~4 %, not ~8 %.
        environment["PYTHONHASHSEED"] = "0"
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=environment)
        if done.returncode != 0:
            raise RuntimeError(f"repetition of {self.workload} failed "
                               f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        (self.traced if traced else self.untraced).append(result)
        return result


class WorkDirectory:
    """A per-process directory under the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.path = WORK_ROOT / f"run-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *_exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()        # only when no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def _metric(values: list[float], clock: list[float] | None = None) -> dict[str, Any]:
    """The reported value -- the median -- beside the values it rests on.

    ``clock`` are the same measurements as the clock read, before they were
    brought to the reference host speed.
    """
    metric = {"value": statistics.median(values), "reps": values,
              "spread": spread(values), **summarize(values)}
    if clock is not None:
        metric["clock"] = statistics.median(clock)
    return metric


#: The percentile metrics: name -> (span it is read across, percentile).
PERCENTILE_METRICS: dict[str, tuple[str, float]] = {
    "cold_start_ms_p50": ("unit", 50), "refresh_ms_p50": ("refresh", 50),
}
#: The tails, demoted to per-layer metrics because they could not hold a
#: bound (README, "Bounds"); read over the samples of all repetitions pooled.
TAIL_METRICS: dict[str, tuple[str, float]] = {
    "cold_start_ms_p95": ("unit", 95), "refresh_ms_p90": ("refresh", 90),
}


def timing_metrics(spans: dict[str, list[float]], shape: dict[str, Any]) -> dict[str, float]:
    """The five timing metrics of one repetition's spans (ms).

    ``shape`` is the repetition: which spans tile the wall-clock and the
    ingest window, and the datagram count.
    """
    def seconds(names: list[str]) -> float:
        return sum(sum(spans[name]) for name in names) / 1e3

    metrics = {
        "campaign_wall_s": seconds(shape["wall_spans"]),
        "ingest_msgs_per_s": shape["datagrams"] / seconds(shape["ingest_spans"]),
        "identify_s": statistics.median(spans["identify"]) / 1e3,
    }
    for name, (span, p) in PERCENTILE_METRICS.items():
        metrics[name] = percentile(spans[span], p)
    return metrics


def end_to_end(series: Series) -> dict[str, dict[str, Any]]:
    """The seven end-to-end metrics: medians over the untraced repetitions
    (``setup_s``: over the set-ups) of the values at the reference host
    speed, with the per-repetition values as ``reps`` and the median as the
    clock read as ``clock``."""
    reps = series.untraced
    corrected = [corrected_spans(rep["spans"], rep["probes"]) for rep in reps]
    values = [timing_metrics(spans, rep) for spans, rep in zip(corrected, reps)]
    clock = [timing_metrics(rep["spans"], rep) for rep in reps]
    metrics = {"setup_s": _metric(series.setup_s, series.setup_clock_s),
               "peak_rss_mb": _metric([rep["peak_rss_mb"] for rep in reps])}
    for name in values[0]:
        metrics[name] = _metric([rep[name] for rep in values], [rep[name] for rep in clock])
    for name, (span, p) in PERCENTILE_METRICS.items():
        # The percentile over all samples pooled, and whether the percentile
        # rule (at least ten samples beyond it) lets a run quote it at all.
        pooled = [sample for spans in corrected for sample in spans[span]]
        supported = highest_supported_percentile(len(pooled))
        metrics[name].update(pooled=percentile(pooled, p), samples=len(pooled),
                             highest_supported_percentile=supported,
                             supported=supported is not None and supported >= p)
    return metrics


def per_layer(series: Series, measured: dict[str, dict[str, Any]],
              host_slowdown: float) -> dict[str, dict[str, Any]]:
    """Per-layer metrics: the median over the traced repetitions, plus what
    the untraced ones say about the instrument itself -- the end-to-end
    timings as the clock read (``clock.*``, from ``measured``) and how much
    slower than the reference the probes found the host."""
    merged: dict[str, dict[str, Any]] = {}
    for name, first in series.traced[0]["layers"].items():
        values = [rep["layers"][name]["value"] for rep in series.traced]
        numbers = [value for value in values if value is not None]
        merged[name] = dict(first, value=statistics.median(numbers) if numbers else None)
    merged["corpus.build_s"] = {"value": statistics.median(series.corpus_build_s),
                                "unit": "s"}
    def body_s(reps: list[dict[str, Any]]) -> float:
        """Median over ``reps`` of all their laps, at the reference host speed."""
        return statistics.median(
            sum(map(sum, corrected_spans(rep["spans"], rep["probes"]).values()))
            for rep in reps)

    merged["trace.overhead_frac"] = {
        "value": body_s(series.traced) / body_s(series.untraced) - 1, "unit": "ratio"}
    merged["trace.host_slowdown"] = {"value": host_slowdown, "unit": "ratio"}
    for name, (span, p) in TAIL_METRICS.items():
        pooled = [sample for rep in series.untraced
                  for sample in corrected_spans(rep["spans"], rep["probes"])[span]]
        merged[name] = {"value": percentile(pooled, p), "unit": "ms", "samples": len(pooled)}
    units = {entry["name"]: entry["unit"] for entry in manifest()["end_to_end"]}
    for name, metric in measured.items():
        if "clock" in metric:
            merged[f"clock.{name}"] = {"value": metric["clock"], "unit": units[name]}
    return merged


def aggregate(series: Series, why: str) -> dict[str, Any]:
    """Everything one workload reports."""
    reps = series.untraced + series.traced
    checks: dict[str, bool] = {}
    for rep in reps:
        for name, passed in rep["checks"].items():
            checks[name] = checks.get(name, True) and passed
    calibration = [rep["calibration_s"] for rep in reps]
    calibration_spread = spread(calibration)
    result: dict[str, Any] = {
        "workload": series.workload, "why": why, "seed": series.seed,
        "sizes": dataclasses.asdict(series.sizes), "repetitions": len(series.untraced),
        "traced_repetitions": len(series.traced),
        "ops": sum(rep["ops"] for rep in reps),
        "failed_ops": sum(rep["failed_ops"] for rep in reps),
        "checks": checks, "correct": all(checks.values()),
        "dropped_knobs": sorted({knob for rep in reps for knob in rep["dropped_knobs"]}),
        "counts": reps[0]["counts"],
        "counts_repeat_exactly": all(rep["counts"] == reps[0]["counts"] for rep in reps),
        "calibration": {"spread": calibration_spread, **summarize(calibration)},
        "noisy": calibration_spread > NOISE_LIMIT,
    }
    result["end_to_end"] = end_to_end(series)
    # How much slower than the reference the probes found the host.
    result["host_slowdown"] = statistics.median(
        probe for rep in series.untraced for probes in rep["probes"].values()
        for probe in probes) / PROBE_REFERENCE_MS
    if series.traced:
        result["per_layer"] = per_layer(series, result["end_to_end"], result["host_slowdown"])
        result["budget"] = series.traced[-1]["budget"]
    return result


def contract_line(result: dict[str, Any], kind: str) -> str:
    """The driver's result object: exactly the declared metrics of ``kind``.

    A per-layer metric that is ``null`` because its layer does no work on
    this workload is printed as 0: the contract wants a number, and zero
    work is what was measured.
    """
    measured = result[kind]
    metrics = {}
    for declaration in manifest()[kind]:
        name = declaration["name"]
        value = measured[name]["value"]
        metrics[name] = {"value": 0 if value is None else value,
                         "unit": declaration["unit"]}
    return json.dumps({"correct": result["correct"], "attempted": max(1, result["ops"]),
                       "failed": result["failed_ops"], "metrics": metrics})


# ---------------------------------------------------------------------- #
# printing
# ---------------------------------------------------------------------- #
def _number(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_result(result: dict[str, Any], out: Any = sys.stderr) -> None:
    """Every metric by name, with its unit (human-readable)."""
    flag = "  NOISY" if result["noisy"] else ""
    calibration = result["calibration"]
    print(f"\n== {result['workload']}  seed={result['seed']} "
          f"reps={result['repetitions']}+{result['traced_repetitions']} traced  "
          f"calibration {calibration['median'] * 1e3:.1f} ms "
          f"(min {calibration['min'] * 1e3:.1f}), spread {calibration['spread']:.1%}{flag}  "
          f"host slowdown x{result['host_slowdown']:.2f}", file=out)
    print(f"   ops={result['ops']} failed_ops={result['failed_ops']} "
          f"dropped_knobs={result['dropped_knobs']}", file=out)
    for name, passed in result["checks"].items():
        print(f"   [{'ok' if passed else 'FAILED'}] {name}", file=out)
    for name, metric in result.get("end_to_end", {}).items():
        tail = f"  clock {_number(metric['clock'])}" if "clock" in metric else ""
        if "samples" in metric:
            tail += f"  pooled {_number(metric['pooled'])} n={metric['samples']}"
            if not metric["supported"]:
                tail += (" (fewer than 10 samples beyond; highest supported: "
                         f"p{metric['highest_supported_percentile']})")
        print(f"   {name:<22} {_number(metric['value']):>10}  "
              f"[q1 {_number(metric['q1'])}  q3 {_number(metric['q3'])}  "
              f"min {_number(metric['min'])}  n={metric['n']}  "
              f"spread {metric['spread']:.1%}]{tail}", file=out)
    for name, metric in result.get("per_layer", {}).items():
        reason = f"  ({metric['reason']})" if metric["value"] is None else ""
        print(f"   {name:<32} {_number(metric['value']):>12} {metric['unit']}{reason}",
              file=out)
    for row in result.get("budget", [])[:12]:
        print(f"   budget  {row['layer']:<22} <- {row['parent'] or '-':<20} "
              f"{row['self_s']:8.3f} s  {row['calls']:>8} calls", file=out)
