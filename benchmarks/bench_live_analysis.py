"""Live-analysis benchmark -- incremental snapshot analyses vs full rebuilds.

A streaming campaign runs with a bound
:class:`~repro.analysis.live.LiveAnalysis` observed after *every* job -- the
live-monitoring regime the subsystem exists for, where each observation pulls
one job's worth of record delta.  Each observation produces four artefacts
(Table 2, Table 3, Table 8, and the Table 7 similarity search); at evenly
spaced checkpoints the same four artefacts are also produced the pre-live
way -- ``snapshot()`` the full record set, build a fresh
:class:`AnalysisPipeline` and :class:`SimilaritySearch`, recompute everything
from scratch -- and compared:

* **byte-identical equality** of every artefact is asserted at every
  checkpoint first (the speedup is only meaningful if the answers match);
* the **per-snapshot cost** of both paths is recorded: the live observation
  scales with the delta since the previous job, the rebuild with the whole
  campaign so far.

Timings land in ``BENCH_live.json`` in the repository root (override with
``REPRO_BENCH_JSON``).  ``REPRO_BENCH_SMOKE=1`` shrinks the campaign for CI:
equivalence is still asserted at every checkpoint, but the speedup floor is
not enforced (shared CI runners are too noisy to gate on).  On the full run,
the aggregate per-snapshot cost of the live path must be at least 5x below
the rebuild path.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.similarity import SimilaritySearch
from repro.core import AnalysisPipeline
from repro.util.errors import AnalysisError
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.0025 if SMOKE else 0.01
SEED = 2026
CHECKPOINTS = 8

RESULTS: dict = {
    "bench": "live_analysis",
    "smoke": SMOKE,
    "scale": SCALE,
    "checkpoints": CHECKPOINTS,
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_live_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_live.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


def _live_artefacts(live):
    try:
        table7 = live.identify_unknown(top=10)
    except AnalysisError:
        table7 = None
    return (live.table2_user_activity(), live.table3_system_executables(),
            live.table8_python_interpreters(), table7)


def _rebuild_artefacts(campaign, user_names):
    records = campaign.snapshot()
    pipeline = AnalysisPipeline(records, user_names)
    search = SimilaritySearch(records)
    try:
        table7 = search.identify_unknown(top=10)
    except AnalysisError:
        table7 = None
    return (pipeline.table2_user_activity(), pipeline.table3_system_executables(),
            pipeline.table8_python_interpreters(), table7), len(records)


class TestLiveSnapshotCost:
    def test_live_vs_rebuild_at_checkpoints(self):
        config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0002,
                                ingest_mode="streaming", keep_raw_messages=False)
        campaign = DeploymentCampaign(config=config)
        live = campaign.live_analysis()
        total_jobs = sum(config.jobs_for(profile) for profile in campaign.profiles)
        step = max(1, total_jobs // CHECKPOINTS)
        checkpoints = {job for job in range(step, total_jobs + 1, step)} | {total_jobs}
        rows: list[dict] = []

        live_ms_all_jobs: list[float] = []

        def on_job(jobs_run: int) -> None:
            # Observe after every job: each pull folds one job's delta.
            start = time.perf_counter()
            live_artefacts = _live_artefacts(live)
            live_seconds = time.perf_counter() - start
            live_ms_all_jobs.append(live_seconds * 1000)
            if jobs_run not in checkpoints:
                return
            start = time.perf_counter()
            rebuild_artefacts, record_count = _rebuild_artefacts(
                campaign, live.user_names)
            rebuild_seconds = time.perf_counter() - start
            # identical answers first -- the speedup is meaningless otherwise
            assert live_artefacts == rebuild_artefacts
            rows.append({
                "job": jobs_run,
                "records": record_count,
                "live_ms": live_seconds * 1000,
                "rebuild_ms": rebuild_seconds * 1000,
            })

        campaign.on_job = on_job
        result = campaign.run()
        assert len(rows) >= min(CHECKPOINTS, total_jobs)

        table = TextTable(
            ["job", "records", "live ms", "rebuild ms", "speedup"],
            title=f"Live snapshot analysis vs rebuild (scale={SCALE})")
        for row in rows:
            speedup = row["rebuild_ms"] / row["live_ms"] if row["live_ms"] else 0.0
            table.add_row([str(row["job"]), str(row["records"]),
                           f"{row['live_ms']:.1f}", f"{row['rebuild_ms']:.1f}",
                           f"{speedup:.1f}x"])
        print()
        print(table.render())

        live_total = sum(row["live_ms"] for row in rows)
        rebuild_total = sum(row["rebuild_ms"] for row in rows)
        aggregate = rebuild_total / live_total if live_total else 0.0
        mean_live = sum(live_ms_all_jobs) / len(live_ms_all_jobs)
        print(f"aggregate per-snapshot speedup: {aggregate:.1f}x "
              f"({len(rows)} checkpoints, {len(result.records)} final records); "
              f"mean live observation over all {len(live_ms_all_jobs)} jobs:"
              f" {mean_live:.1f} ms")
        RESULTS["snapshots"] = rows
        RESULTS["aggregate"] = {
            "live_ms_total": live_total,
            "rebuild_ms_total": rebuild_total,
            "speedup": aggregate,
            "live_ms_mean_all_jobs": mean_live,
            "observations": len(live_ms_all_jobs),
            "final_records": len(result.records),
            "jobs": result.jobs_run,
        }
        RESULTS["live_statistics"] = live.statistics()
        if not SMOKE:
            assert aggregate >= 5.0, (
                f"live snapshot analyses must be at least 5x cheaper than the"
                f" rebuild path (measured {aggregate:.1f}x)")
