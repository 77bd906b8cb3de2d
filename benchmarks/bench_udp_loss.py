"""Ablation -- transport degradation vs completeness of the consolidated records.

Section 3.1 reports that roughly 0.02 % of the jobs have missing fields
attributable to UDP message loss, and argues that hashing each collected list
keeps partially lost records analysable.  This bench sweeps two axes:

* the plain datagram loss rate (the original ablation), and
* the full deterministic fault-plan presets from :mod:`repro.faults`
  (loss / duplication / reordering / corruption / truncation / jitter and a
  mixed-hostile combination) -- the degradation curves behind the
  fault-injection claims.

For every preset the curve records the *recovered-record fraction* (records
consolidated under the fault plan relative to the fault-free baseline), the
incomplete fraction, decode/quarantine counters and the channel's own fault
counters.  Results are written as machine-readable JSON to
``BENCH_faults.json`` in the repository root (override with
``REPRO_BENCH_JSON``).  Setting ``REPRO_BENCH_SMOKE=1`` shrinks the campaigns
for CI smoke runs: curve shape is still asserted, absolute values are
recorded but not gated.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan, preset_plans
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.0025 if SMOKE else 0.01
SEED = 11

#: Collected by the tests below, dumped once at module teardown.
RESULTS: dict = {
    "bench": "faults",
    "smoke": SMOKE,
    "scale": SCALE,
    "seed": SEED,
    "cpus": len(os.sched_getaffinity(0)),
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        # Smoke runs (CI) are throwaway measurements: keep the tracked
        # repo-root results file (the recorded full run) untouched.
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_faults_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_faults.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


def _run_with_loss(loss_rate: float):
    config = CampaignConfig(scale=0.0, seed=SEED, loss_rate=loss_rate,
                            min_jobs_per_user=2)
    return DeploymentCampaign(config=config).run()


@pytest.mark.parametrize("loss_rate", [0.0, 0.0002, 0.01, 0.05])
def test_udp_loss_sweep(benchmark, loss_rate):
    result = benchmark.pedantic(_run_with_loss, args=(loss_rate,), rounds=1, iterations=1)
    incomplete = result.incomplete_fraction
    observed = getattr(result.channel, "observed_loss_rate", 0.0)
    table = TextTable(["configured loss", "observed datagram loss", "incomplete records"],
                      title="UDP loss ablation")
    table.add_row([f"{loss_rate:.4f}", f"{observed:.4f}", f"{incomplete:.4f}"])
    print()
    print(table.render())

    # Shape: completeness degrades monotonically-ish with loss; at the paper's
    # operating point (0.02 % datagram loss) the incomplete fraction stays tiny.
    if loss_rate == 0.0:
        assert incomplete == 0.0
    elif loss_rate <= 0.0002:
        assert incomplete < 0.02
    elif loss_rate >= 0.05:
        assert incomplete > 0.0
    RESULTS.setdefault("udp_loss", {})[f"{loss_rate:.4f}"] = {
        "observed_loss_rate": observed,
        "incomplete_fraction": incomplete,
        "records": len(result.records),
    }


def test_list_hashes_survive_partial_loss():
    """Even heavily lossy collection keeps the per-list hashes usable for similarity."""
    lossless = _run_with_loss(0.0)
    lossy = _run_with_loss(0.05)
    lossless_hashes = {r.objects_h for r in lossless.records if r.objects_h}
    lossy_hashes = {r.objects_h for r in lossy.records if r.objects_h}
    # The same object-list hashes are still observed despite datagram loss.
    assert lossy_hashes & lossless_hashes


# --------------------------------------------------------------------- #
# degradation curves over the fault-plan presets
# --------------------------------------------------------------------- #
def _run_with_plan(plan: FaultPlan | None):
    config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0, fault_plan=plan)
    campaign = DeploymentCampaign(config=config)
    started = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - started


class TestFaultDegradationCurve:
    def test_preset_sweep(self):
        plans = preset_plans(seed=SEED)
        baseline, _ = _run_with_plan(plans["baseline"])
        assert baseline.records
        table = TextTable(
            ["preset", "recovered", "incomplete", "decode errors", "quarantined"],
            title="fault-plan degradation curve (streaming ingest)")
        curve: dict = {}
        for name, plan in plans.items():
            result, seconds = _run_with_plan(plan)
            recovered = len(result.records) / len(baseline.records)
            point = {
                "recovered_record_fraction": recovered,
                "incomplete_fraction": result.incomplete_fraction,
                "decode_errors": result.decode_errors,
                "quarantined": result.quarantined,
                "seconds": seconds,
            }
            if result.fault_counters is not None:
                point["fault_counters"] = result.fault_counters
            curve[name] = point
            table.add_row([name, f"{recovered:.3f}",
                           f"{result.incomplete_fraction:.3f}",
                           str(result.decode_errors), str(result.quarantined)])
        print()
        print(table.render())
        RESULTS["presets"] = curve

        # Curve shape, not absolute values: the clean presets change nothing,
        # pure duplication changes nothing, and recovery degrades with the
        # configured loss rate.
        assert curve["baseline"]["recovered_record_fraction"] == 1.0
        assert curve["dup-10pct"]["recovered_record_fraction"] == 1.0
        assert curve["jitter-10pct"]["recovered_record_fraction"] == 1.0
        assert (curve["loss-20pct"]["recovered_record_fraction"]
                <= curve["loss-5pct"]["recovered_record_fraction"]
                <= curve["loss-1pct"]["recovered_record_fraction"]
                <= 1.0)
        # Pure loss degrades *completeness*, not record count: a lossy group
        # still closes into a (flagged) record, which is the paper's
        # list-hash robustness claim.  The incomplete curve must rise.
        assert (curve["baseline"]["incomplete_fraction"]
                <= curve["loss-1pct"]["incomplete_fraction"]
                <= curve["loss-5pct"]["incomplete_fraction"]
                <= curve["loss-20pct"]["incomplete_fraction"])
        assert curve["loss-20pct"]["incomplete_fraction"] > 0
        # Corruption/truncation produce genuine decode errors, and the
        # quarantine keeps (a bounded number of) them for forensics.
        for name in ("corrupt-5pct", "truncate-5pct", "mixed-hostile"):
            assert curve[name]["decode_errors"] > 0
            assert 0 < curve[name]["quarantined"] <= max(
                curve[name]["decode_errors"], 1)
