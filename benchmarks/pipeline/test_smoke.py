"""Tier-1 smoke test of the pipeline benchmark, plus unit tests of its parts.

The smoke test runs every workload once at toy size, traced, in-process (no
child interpreters: tier-1 must stay fast) and checks the benchmark's own
contract: every metric BENCHMARK.json declares is emitted, the correctness
checks pass, and the layer self times add up to the traced wall-clock.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re

import pytest

from . import WORKLOADS, compare, harness, inputs, trace, workloads
from .trace import (Laps, NullTracer, Tracer, highest_supported_percentile, percentile,
                    samples_beyond)

MANIFEST = harness.manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Seconds, not statistics: 12 small binaries and, in the fixture below, the
#: campaign without ``user_4`` (whose three jobs are 85 % of its processes).
TOY = inputs.Sizes(scale=0.0, binaries=12, text_size=8192, steady_refreshes=2,
                   identify_rounds=1)


# ---------------------------------------------------------------------- #
# every workload, toy size, traced
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def toy_series(tmp_path_factory):
    """One traced repetition per workload, run in-process."""
    directory = tmp_path_factory.mktemp("pipeline-inputs")
    all_series = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inputs, "DEFAULT_PROFILES", tuple(
            profile for profile in inputs.DEFAULT_PROFILES if profile.username != "user_4"))
        for workload in WORKLOADS:
            if workload == "live-query":    # shares replay's captured stream
                series = dataclasses.replace(all_series["replay"], workload=workload,
                                             untraced=[], traced=[])
            else:
                series = harness.Series(workload, seed=7, sizes=TOY, directory=directory)
                series.set_up()
            loaded = inputs.load(series.inputs_path)
            result = workloads.repetition(workload, loaded, Tracer())
            result.update(calibration_s=harness.calibrate(), peak_rss_mb=1.0)
            result = json.loads(json.dumps(result))   # as a child would ship it
            # one repetition only: it doubles as the untraced sample
            series.traced.append(result)
            series.untraced.append(result)
            all_series[workload] = series
    return all_series


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(toy_series, workload):
    result = harness.aggregate(toy_series[workload], why="smoke")
    assert result["correct"], result["checks"]
    assert result["failed_ops"] == 0 and result["ops"] >= 1
    assert result["dropped_knobs"] == []

    for kind in ("end_to_end", "per_layer"):
        for declaration in MANIFEST[kind]:
            name = declaration["name"]
            assert NAME.fullmatch(name), name
            metric = result[kind][name]
            if metric["value"] is None:
                assert metric["reason"], f"{name} is null without a reason"
            else:
                assert isinstance(metric["value"], (int, float)), name
        assert set(result[kind]) == {d["name"] for d in MANIFEST[kind]}
    assert abs(result["per_layer"]["trace.self_sum_frac"]["value"] - 1.0) <= 0.02

    for kind in ("end_to_end", "per_layer"):
        line = json.loads(harness.contract_line(result, kind))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert all(isinstance(metric["value"], (int, float))
                   for metric in line["metrics"].values())


def test_workloads_agree_on_the_campaign_they_share(toy_series):
    counts = {name: series.traced[0]["counts"] for name, series in toy_series.items()}
    for key in ("transport.datagrams", "db.silver_rows", "records",
                "analysis.comparisons"):
        assert counts["campaign"][key] == counts["replay"][key] == counts["live-query"][key]
    assert counts["replay"]["hpcsim.procs"] == 0 < counts["campaign"]["hpcsim.procs"]


def test_manifest_names_the_four_workloads_and_setup():
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/pipeline"]
    assert any(d["name"] == "setup_s" and d["better"] == "lower"
               for d in MANIFEST["end_to_end"])


def test_knob_filter_drops_and_reports_unknown_names():
    dropped: list[str] = []
    kept = inputs.accepted_knobs(inputs.CampaignConfig, dropped, scale=0.0,
                                 no_such_knob=1)
    assert kept == {"scale": 0.0} and dropped == ["CampaignConfig.no_such_knob"]
    assert inputs.accepted_knobs(lambda shards=1: None, dropped, shards=2,
                                 workers="process") == {"shards": 2}
    assert dropped[-1].endswith(".workers")


# ---------------------------------------------------------------------- #
# the span stack
# ---------------------------------------------------------------------- #
class _Clock:
    """perf_counter stand-in advanced by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(trace, "perf_counter", fake)
    return fake


def test_self_time_is_duration_minus_children(clock):
    tracer = Tracer()
    with tracer.span("root"):
        clock.now += 1.0
        with tracer.span("child"):
            clock.now += 2.0
            with tracer.span("leaf"):
                clock.now += 4.0
        clock.now += 8.0
    assert tracer.self_s[("root", "")] == pytest.approx(9.0)
    assert tracer.self_s[("child", "root")] == pytest.approx(2.0)
    assert tracer.self_s[("leaf", "child")] == pytest.approx(4.0)
    assert tracer.total_self() == pytest.approx(15.0) == tracer.inclusive_s["root"]


def test_reentry_counts_inclusive_time_once_and_sums_sublayers(clock):
    tracer = Tracer()
    with tracer.span("db"):
        clock.now += 1.0
        with tracer.span("db"):          # same layer re-entered
            clock.now += 2.0
        with tracer.span("db.gold"):     # dotted sub-layer
            clock.now += 4.0
    assert tracer.inclusive_s["db"] == pytest.approx(7.0)
    assert tracer.layer_self("db") == pytest.approx(7.0)
    assert tracer.calls[("db", "db")] == 1


def test_wrapped_method_closes_its_span_when_it_raises(clock):
    class Layer:
        def work(self, fail):
            clock.now += 1.0
            if fail:
                raise ValueError("boom")
            return "done"

    tracer, layer = Tracer(), Layer()
    tracer.wrap(layer, "work", "layer", sample="layer.work")
    with tracer.span("root"):
        with pytest.raises(ValueError):
            layer.work(True)
        assert layer.work(False) == "done"
    assert tracer.self_s[("layer", "root")] == pytest.approx(2.0)
    assert tracer.samples["layer.work"] == [pytest.approx(1.0)] * 2
    assert tracer.self_s[("root", "")] == pytest.approx(0.0)
    assert not tracer._stack


def test_null_tracer_wraps_nothing():
    class Layer:
        def work(self):
            return 1

    layer = Layer()
    NullTracer().wrap(layer, "work", "layer")
    assert "work" not in vars(layer)


# ---------------------------------------------------------------------- #
# laps and probes
# ---------------------------------------------------------------------- #
def test_laps_and_what_lies_between_them_tile_the_clock(clock, monkeypatch):
    probe_seconds = iter([0.4, 0.6, 0.8, 1.0])

    def probe():
        seconds = next(probe_seconds)
        clock.now += seconds
        return seconds * 1e3

    monkeypatch.setattr(trace, "probe_ms", probe)
    laps = Laps()                # probe 0: 0.0 .. 0.4
    clock.now += 1.0
    laps.lap("short")            # probe 1: 1.4 .. 2.0
    clock.now += 2.0
    laps.probe_inside()          # probe 2: 4.0 .. 4.8
    clock.now += 3.0
    laps.lap("long")             # probe 3: 7.8 .. 8.8
    assert laps.spans == {"short": [pytest.approx(1000.0)], "long": [pytest.approx(5000.0)]}
    assert laps.between_ms == pytest.approx(2800.0)
    assert clock.now == pytest.approx((6000.0 + laps.between_ms) / 1e3)
    # a duration is corrected by the probes before, inside and after it
    assert laps.probes == {"short": [pytest.approx(500.0)], "long": [pytest.approx(800.0)]}
    assert laps.corrected()["long"] == [pytest.approx(5000.0 * trace.PROBE_REFERENCE_MS / 800.0)]


def test_stream_is_cut_at_job_boundaries_and_inside_long_jobs():
    every = trace.PROBE_EVERY_DATAGRAMS
    assert workloads.stream_cuts([100, 100 + 2 * every + 1, 100 + 3 * every]) == [
        100, 100 + every, 100 + 2 * every, 100 + 2 * every + 1, 100 + 3 * every]


# ---------------------------------------------------------------------- #
# percentiles, spread, verdicts
# ---------------------------------------------------------------------- #
def test_highest_percentile_needs_ten_samples_beyond():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(146) == 90.0      # 14 beyond p90, 7 beyond p95
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(400) == 95.0      # p99 leaves only 4
    assert highest_supported_percentile(1000) == 99.0
    assert samples_beyond(200, 95) == 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile([3.0], 99) == 3.0


def test_verdicts():
    def verdict(before, after, **kwargs):
        return compare.verdict(before, after, bound=0.10, **kwargs)

    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [v * 1.02 for v in steady], better="lower") == "ok"
    assert verdict(steady, [v * 1.2 for v in steady], better="lower") == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], better="higher") == "improved"
    # spread wider than the bound: not shown unchanged
    noisy = [8.0, 12.0, 10.0, 9.0, 11.5]
    assert trace.spread(noisy) > 0.10 > trace.spread(steady)
    assert verdict(noisy, [v * 1.05 for v in noisy], better="lower") == "unresolved"
    # every run of B worse than every run of A still counts through the noise
    assert verdict(noisy, [v * 2 for v in noisy], better="lower") == "regressed"
    # too few repetitions to take a spread of
    assert verdict(steady[:2], [v * 2 for v in steady], better="lower") == "unresolved"


def test_compare_refuses_runs_of_different_inputs(toy_series):
    result = harness.aggregate(toy_series["replay"], why="smoke")
    document = {"fingerprint": harness.fingerprint(7), "workloads": {"replay": result}}
    other = json.loads(json.dumps(document))
    assert compare.compare(document, other, out=io.StringIO()) == 0
    other["workloads"]["replay"]["seed"] = 8
    report = io.StringIO()
    assert compare.compare(document, other, out=report) == 2
    assert "different inputs" in report.getvalue()
