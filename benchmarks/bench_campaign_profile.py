"""Campaign driver benchmark -- the stage profile.

One campaign run with the built-in :class:`~repro.util.timing.StageTimer`
enabled, recording where the wall-clock goes (``campaign.prepare`` /
``cluster.run_job`` / ``collect.*`` / ``transport.*`` / ``store.write`` ...)
and the cache-effectiveness counters.

Results are written as machine-readable JSON to ``BENCH_campaign.json`` in
the repository root (override with ``REPRO_BENCH_JSON``), with the host's
visible core count as ``cpus``.  ``REPRO_BENCH_SMOKE=1`` shrinks the
campaign for CI smoke runs.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.0025 if SMOKE else 0.01
SEED = 2025
LOSS_RATE = 0.0002
CPUS = len(os.sched_getaffinity(0))

RESULTS: dict = {
    "bench": "campaign_profile",
    "smoke": SMOKE,
    "scale": SCALE,
    "seed": SEED,
    "cpus": CPUS,
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        # Smoke runs (CI) are throwaway measurements: keep the tracked
        # repo-root results file (the recorded full run) untouched.
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_campaign_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


def _run_campaign():
    """One timed campaign run; returns (result, wall seconds)."""
    config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=LOSS_RATE)
    campaign = DeploymentCampaign(config=config)
    campaign.prepare()
    start = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - start


def _stage_table(title: str, stages: dict) -> str:
    table = TextTable(["stage", "inclusive s", "calls"], title=title)
    for name, stat in stages.items():
        table.add_row([name, f"{stat['seconds']:.3f}", f"{stat['calls']:,}"])
    return table.render()


@pytest.fixture(scope="module")
def serial_run():
    """The profiled run: result + wall seconds, shared by both tests."""
    return _run_campaign()


class TestStageProfile:
    def test_serial_profile_accounts_for_the_run(self, serial_run):
        result, seconds = serial_run
        stages = result.stage_timings
        print()
        print(_stage_table(f"Serial campaign stage profile ({seconds:.2f}s "
                           f"wall, scale={SCALE})", stages))
        for stage in ("campaign.prepare", "campaign.jobs", "campaign.finalize",
                      "cluster.run_job", "collect.start", "transport.encode",
                      "transport.send"):
            assert stage in stages, f"stage {stage} missing from the profile"
        # The three top-level stages cover (nearly) the whole run: the
        # profile is trustworthy evidence, not a sample.
        covered = sum(stages[name]["seconds"] for name in
                      ("campaign.prepare", "campaign.jobs", "campaign.finalize"))
        assert covered > 0.5 * seconds
        # Job execution dominates, and collection dominates inside it.
        assert stages["campaign.jobs"]["seconds"] >= \
            stages["campaign.prepare"]["seconds"]
        RESULTS["serial"] = {"seconds": seconds, "stages": stages,
                             "records": len(result.records),
                             "statistics": result.statistics()}

    def test_cache_effectiveness_counters(self, serial_run):
        result, _seconds = serial_run
        stats = result.statistics()
        # The content/path caches carry the hashing load; the compare LRU
        # only engages in analyses, so it is recorded but not asserted.
        assert stats["hash_cache_hit_rate"] > 0.9
        assert stats["hash_content_cache_hits"] >= 0
        RESULTS["cache_effectiveness"] = {
            key: stats[key] for key in
            ("hashes_computed", "hash_cache_hits", "hash_content_cache_hits",
             "hash_cache_hit_rate", "compare_cache_hits", "compare_cache_misses")}
