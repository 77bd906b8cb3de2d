"""The per-layer budget report over hand-built benchmark documents.

``scripts/layer_budget.py`` is what CI appends to the job summary and what
the perf gate's shares are read from, so its arithmetic is tier-1: a layer
summed over its callers, ``trace.probe`` left out, shares net of it, and a
refresh split into its ``per_layer`` parts, whatever figures are missing.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def layer_budget():
    spec = importlib.util.spec_from_file_location(
        "layer_budget", REPO_ROOT / "scripts" / "layer_budget.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(layer, parent, self_s):
    return {"layer": layer, "parent": parent, "self_s": self_s, "calls": 1}


def _per_layer(ms: dict[str, float | None]) -> dict:
    """``per_layer`` entries of the given millisecond figures."""
    return {key: {"value": value, "unit": "ms"} for key, value in ms.items()}


def _document(ingest_s: float, views_ms: float = 0.5) -> dict:
    """Two workloads; ``ingest`` has two callers, ``trace.probe`` is a
    quarter of ``replay`` and a half of ``live-query``.  ``replay`` has every
    refresh figure; ``live-query`` lacks the gold one and has no value for
    the views."""
    return {"fingerprint": {}, "workloads": {
        "replay": {"per_layer": _per_layer({
            "analysis.live_sync_ms_p50": 0.1, "analysis.live_views_ms_p50": views_ms,
            "db.gold_query_ms_p50": 0.4, "ingest.snapshot_delta_ms_p50": 0.05}),
                   "budget": [
            _row("ingest", "transport", ingest_s - 1.0),
            _row("ingest", "workload.driver", 1.0),
            _row("trace.probe", "workload.driver", 2.0),
            _row("db.store", "ingest", 2.0),
            _row("workload.prepare", None, 6.0 - ingest_s)]},
        "live-query": {"per_layer": _per_layer({
            "analysis.live_sync_ms_p50": 1.5, "analysis.live_views_ms_p50": None,
            "ingest.snapshot_delta_ms_p50": 1.25}),
                       "budget": [
            _row("ingest.snapshot", "analysis.live_sync", 1.5),
            _row("trace.probe", "workload.driver", 2.0),
            _row("db.store", "ingest", 0.5)]},
    }}


def _write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_the_probe_is_out_and_callers_are_summed(layer_budget):
    times = layer_budget.layer_self_times(_document(3.0))
    assert times == {"replay": {"ingest": 3.0, "db.store": 2.0, "workload.prepare": 3.0},
                     "live-query": {"ingest.snapshot": 1.5, "db.store": 0.5}}
    assert layer_budget.shares(times["replay"]) == {
        "ingest": 0.375, "db.store": 0.25, "workload.prepare": 0.375}
    assert layer_budget.shares(times["live-query"]) == {"ingest.snapshot": 0.75,
                                                        "db.store": 0.25}
    assert layer_budget.shares({}) == {}


def test_one_document_prints_its_shares(layer_budget, tmp_path, capsys):
    run = _write(tmp_path / "run.json", _document(3.0))
    assert layer_budget.main([run]) == 0
    out = capsys.readouterr().out
    assert "trace.probe" not in out.replace("net of trace.probe", "")
    lines = out.splitlines()
    assert lines[0] == "== replay  (budget self time net of trace.probe: 8.000 s)"
    assert lines[2].split() == ["ingest", "3.000", "37.5%"]
    assert lines[4].split() == ["db.store", "2.000", "25.0%"]
    assert ["ingest.snapshot", "1.500", "75.0%"] in [line.split() for line in lines]


def test_two_documents_print_the_move_and_both_shares(layer_budget, tmp_path, capsys):
    first = _write(tmp_path / "a.json", _document(3.0))
    second = _write(tmp_path / "b.json", _document(2.0))
    assert layer_budget.main([first, second]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0][:2] == ["==", "replay"]
    # ingest fell by a second and workload.prepare rose by one; db.store held
    assert rows[2] == ["ingest", "3.000", "2.000", "-1.000", "37.5%", "25.0%"]
    assert rows[3] == ["workload.prepare", "3.000", "4.000", "+1.000", "37.5%", "50.0%"]
    assert rows[4] == ["db.store", "2.000", "2.000", "+0.000", "25.0%", "25.0%"]
    assert not any(row and row[0] == "trace.probe" for row in rows)


def test_three_documents_are_a_usage_error(layer_budget, tmp_path, capsys):
    run = _write(tmp_path / "run.json", _document(3.0))
    assert layer_budget.main([run, run, run]) == 2
    assert "usage" in capsys.readouterr().err


def test_the_refresh_split_keeps_the_figures_a_document_has(layer_budget):
    assert layer_budget.refresh_split(_document(3.0)) == {
        "replay": {"analysis.live_sync_ms_p50": 0.1, "analysis.live_views_ms_p50": 0.5,
                   "db.gold_query_ms_p50": 0.4, "ingest.snapshot_delta_ms_p50": 0.05},
        "live-query": {"analysis.live_sync_ms_p50": 1.5,
                       "ingest.snapshot_delta_ms_p50": 1.25}}
    untraced = {"workloads": {"replay": {"budget": []}, "campaign": {"per_layer": {}}}}
    assert layer_budget.refresh_split(untraced) == {}


def test_one_document_prints_the_refresh_split(layer_budget, tmp_path, capsys):
    assert layer_budget.main([_write(tmp_path / "run.json", _document(3.0))]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("== replay  (per refresh, p50 ms; share of the parts' sum: 1.000 ms)")
    assert [line.split() for line in lines[start + 1:start + 5]] == [
        ["analysis.live_views_ms_p50", "0.500", "50.0%"],
        ["db.gold_query_ms_p50", "0.400", "40.0%"],
        ["analysis.live_sync_ms_p50", "0.100", "10.0%"],
        ["ingest.snapshot_delta_ms_p50", "0.050", "(pulls,", "inside", "the", "parts)"]]
    start = lines.index("== live-query  (per refresh, p50 ms; share of the parts' sum: "
                        "1.500 ms)")
    assert [line.split()[:3] for line in lines[start + 1:]] == [
        ["analysis.live_sync_ms_p50", "1.500", "100.0%"],
        ["ingest.snapshot_delta_ms_p50", "1.250", "(pulls,"]]


def test_two_documents_print_both_refresh_splits(layer_budget, tmp_path, capsys):
    first = _write(tmp_path / "a.json", _document(3.0))
    second = _write(tmp_path / "b.json", _document(3.0, views_ms=0.1))
    assert layer_budget.main([first, second]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("== replay  (per refresh, p50 ms; share of the parts' sum)")
    assert [line.split() for line in lines[start + 2:start + 7]] == [
        ["analysis.live_sync_ms_p50", "0.100", "0.100", "+0.000", "10.0%", "16.7%"],
        ["analysis.live_views_ms_p50", "0.500", "0.100", "-0.400", "50.0%", "16.7%"],
        ["db.gold_query_ms_p50", "0.400", "0.400", "+0.000", "40.0%", "66.7%"],
        ["sum", "1.000", "0.600", "-0.400"],
        ["ingest.snapshot_delta_ms_p50", "0.050", "0.050", "+0.000"]]
    start = lines.index("== live-query  (per refresh, p50 ms; share of the parts' sum)")
    assert [line.split()[0] for line in lines[start + 2:]] == [
        "analysis.live_sync_ms_p50", "sum", "ingest.snapshot_delta_ms_p50"]


def _with_identify(document: dict, build_s: float, identify_s: float,
                   host_slowdown: float = 1.0) -> dict:
    """``document`` with ``replay``'s per-identify figures (``live-query`` has
    none): the round at the reference host speed, the traced build and the
    host slowdown as the clock read them."""
    replay = document["workloads"]["replay"]
    replay["end_to_end"] = {"identify_s": {"value": identify_s, "unit": "s"}}
    replay["per_layer"].update({
        "analysis.search_build_s": {"value": build_s, "unit": "s"},
        "trace.host_slowdown": {"value": host_slowdown, "unit": "ratio"}})
    return document


_HEADER = "== replay  (per identify round, at the reference host speed)"


def test_the_identify_split_keeps_the_figures_a_document_has(layer_budget):
    both = _with_identify(_document(3.0), 0.004, 0.004, host_slowdown=2.0)
    assert layer_budget.identify_split(both) == {
        "replay": {"build": 2.0, "rest": 2.0, "share": 0.5}}
    build_only = _with_identify(_document(3.0), 0.001, 0.004)
    del build_only["workloads"]["replay"]["end_to_end"]
    assert layer_budget.identify_split(build_only) == {"replay": {"build": 1.0}}
    no_host = _with_identify(_document(3.0), 0.001, 0.004)
    del no_host["workloads"]["replay"]["per_layer"]["trace.host_slowdown"]
    assert layer_budget.identify_split(no_host) == {}
    assert layer_budget.identify_split(_document(3.0)) == {}


def test_one_document_prints_the_identify_split(layer_budget, tmp_path, capsys):
    run = _write(tmp_path / "run.json", _with_identify(_document(3.0), 0.001, 0.004))
    assert layer_budget.main([run]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(_HEADER)
    assert [line.split()[-1] for line in lines[start + 1:]] == ["1.000", "3.000", "25.0%"]
    assert "== live-query  (per identify round, at the reference host speed)" not in lines


def test_a_document_without_the_figures_prints_no_identify_split(layer_budget, tmp_path,
                                                                 capsys):
    assert layer_budget.main([_write(tmp_path / "run.json", _document(3.0))]) == 0
    assert "per identify round" not in capsys.readouterr().out


def test_two_documents_print_both_identify_splits(layer_budget, tmp_path, capsys):
    first = _write(tmp_path / "a.json", _with_identify(_document(3.0), 0.002, 0.004))
    second = _write(tmp_path / "b.json", _with_identify(_document(3.0), 0.001, 0.003))
    assert layer_budget.main([first, second]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(_HEADER)
    assert [line.split()[-3:] for line in lines[start + 2:]] == [
        ["2.000", "1.000", "-1.000"], ["2.000", "2.000", "+0.000"],
        ["50.0%", "33.3%", "-16.7%"]]


def test_the_identify_split_does_not_depend_on_the_host(layer_budget, tmp_path, capsys):
    """Two runs of the same code, one on a host twice as slow: every clock
    figure doubles, the host-corrected round does not, and the split is the
    same."""
    split = []
    for host_slowdown in (1.0, 2.0):
        document = _with_identify(_document(3.0), 0.002 * host_slowdown, 0.005,
                                  host_slowdown=host_slowdown)
        document["workloads"]["replay"]["per_layer"]["clock.identify_s"] = {
            "value": 0.005 * host_slowdown, "unit": "s"}
        assert layer_budget.main([_write(tmp_path / "run.json", document)]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(_HEADER)
        split.append(lines[start:start + 4])
    assert split[0] == split[1]
    assert [line.split()[-1] for line in split[0][1:]] == ["2.000", "3.000", "40.0%"]
