"""The per-layer budget report over hand-built benchmark documents.

``scripts/layer_budget.py`` is what CI appends to the job summary and what
the perf gate's shares are read from, so its arithmetic is tier-1: a layer
summed over its callers, ``trace.probe`` left out, shares net of it.
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


def _document(ingest_s: float) -> dict:
    """Two workloads; ``ingest`` has two callers, ``trace.probe`` is a
    quarter of ``replay`` and a half of ``live-query``."""
    return {"fingerprint": {}, "workloads": {
        "replay": {"budget": [
            _row("ingest", "transport", ingest_s - 1.0),
            _row("ingest", "workload.driver", 1.0),
            _row("trace.probe", "workload.driver", 2.0),
            _row("db.store", "ingest", 2.0),
            _row("workload.prepare", None, 6.0 - ingest_s)]},
        "live-query": {"budget": [
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
