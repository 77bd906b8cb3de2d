"""Ingest benchmark -- batch post-pass vs streaming.

Measures, with equivalence of all record sets asserted first:

* **replay throughput** (messages/s): a campaign's datagram stream is
  captured once, then replayed into (a) the batch path (persist raw +
  post-pass consolidation) and (b) one streaming consolidator -- isolating
  pure ingest cost from collection/hashing.
  Per-arm setup (store construction) runs *outside* the timer, so every
  arm is measured at steady state,
* **peak open groups**: how many process groups streaming ingest holds open
  at its worst, vs the total process count the batch pass materialises,
* **campaign wall-clock**: end-to-end campaign seconds per ingest mode, and
* **mid-run snapshot**: latency and size of a live ``snapshot()`` taken
  halfway through the job stream.

Results are written as machine-readable JSON to ``BENCH_ingest.json`` in the
repository root (override with ``REPRO_BENCH_JSON``).  Setting
``REPRO_BENCH_SMOKE=1`` shrinks the campaign for CI smoke runs: equivalence
is still asserted, timing is recorded, but throughput floors are not
enforced (shared CI runners are too noisy to gate on).

Throughput floor on the full run: streaming replay must be at least the
batch path's (it skips the raw-message table entirely).  ``cpus`` records
the host's visible core count next to the readings.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator
from repro.postprocess.consolidate import Consolidator
from repro.transport.receiver import MessageReceiver
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.0025 if SMOKE else 0.01
SEED = 2025
CPUS = len(os.sched_getaffinity(0))

#: Collected by the tests below, dumped once at module teardown.
RESULTS: dict = {
    "bench": "ingest",
    "smoke": SMOKE,
    "scale": SCALE,
    "cpus": CPUS,
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        # Smoke runs (CI) are throwaway measurements: keep the tracked
        # repo-root results file (the recorded full run) untouched.
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_ingest_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


@pytest.fixture(scope="module")
def datagram_stream() -> list[bytes]:
    """One campaign's datagram stream, captured once for all replay arms."""
    campaign = DeploymentCampaign(
        config=CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0002))
    campaign.prepare()
    captured: list[bytes] = []
    campaign.channel.subscribe(captured.append)
    campaign.run()
    return captured


def _record_set(records):
    return sorted(tuple(getattr(r, name) for name in r.__dataclass_fields__)
                  for r in records)


class TestReplayThroughput:
    def test_batch_vs_streaming(self, datagram_stream):
        arms = {}

        def setup_batch():
            store = MessageStore()
            return store, MessageReceiver(store)

        def run_batch(state):
            store, receiver = state
            for datagram in datagram_stream:
                receiver.handle_datagram(datagram)
            receiver.flush()
            return Consolidator(store).run(), {}

        def setup_streaming():
            store = MessageStore()
            sink = IncrementalConsolidator(store)
            return sink, MessageReceiver(store, sink=sink, persist_raw=False)

        def run_streaming(state):
            sink, receiver = state
            for datagram in datagram_stream:
                receiver.handle_datagram(datagram)
            receiver.flush()
            records = sink.finalize()
            return records, {"peak_open_groups": sink.peak_open_processes}

        table = TextTable(["ingest path", "messages/s", "seconds", "peak open groups"],
                          title=f"Replay ingest throughput ({len(datagram_stream)}"
                                " datagrams)")
        reference = None
        for name, setup, runner in (
            ("batch", setup_batch, run_batch),
            ("streaming", setup_streaming, run_streaming),
        ):
            state = setup()
            start = time.perf_counter()
            records, extra = runner(state)
            seconds = time.perf_counter() - start
            if reference is None:
                reference = _record_set(records)
                extra["total_records"] = len(records)
            else:
                assert _record_set(records) == reference  # identical output first
            arms[name] = {
                "seconds": seconds,
                "messages_per_s": len(datagram_stream) / seconds,
                **extra,
            }
            table.add_row([name, f"{arms[name]['messages_per_s']:,.0f}",
                           f"{seconds:.2f}",
                           str(extra.get("peak_open_groups", "-"))])
        print()
        print(table.render())

        RESULTS["replay"] = {"datagrams": len(datagram_stream), **arms}
        if not SMOKE:
            assert arms["streaming"]["messages_per_s"] >= arms["batch"]["messages_per_s"], (
                "streaming replay ingest fell below batch throughput")
            assert arms["streaming"]["peak_open_groups"] < arms["batch"]["total_records"]


class TestCampaignWallClock:
    def test_campaign_per_ingest_mode(self):
        timings = {}
        digests = {}
        for name, overrides in (
            ("batch", {}),
            ("streaming", {"ingest_mode": "streaming", "keep_raw_messages": False}),
        ):
            config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0002,
                                    **overrides)
            start = time.perf_counter()
            result = DeploymentCampaign(config=config).run()
            timings[name] = time.perf_counter() - start
            digests[name] = _record_set(result.records)
        assert len(set(map(tuple, digests.values()))) == 1, (
            "campaign record sets diverged across ingest modes")
        table = TextTable(["ingest mode", "campaign seconds"],
                          title=f"Campaign wall-clock (scale={SCALE})")
        for name, seconds in timings.items():
            table.add_row([name, f"{seconds:.2f}"])
        print()
        print(table.render())
        RESULTS["campaign"] = {name: {"seconds": seconds}
                               for name, seconds in timings.items()}


class TestMidRunSnapshot:
    def test_snapshot_halfway_through(self):
        config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0002,
                                ingest_mode="streaming", keep_raw_messages=False)
        campaign = DeploymentCampaign(config=config)
        taken: dict = {}
        total_jobs = sum(config.jobs_for(profile) for profile in campaign.profiles)

        def on_job(jobs_run: int) -> None:
            if jobs_run == total_jobs // 2:
                start = time.perf_counter()
                records = campaign.snapshot()
                taken["seconds"] = time.perf_counter() - start
                taken["records"] = len(records)

        campaign.on_job = on_job
        result = campaign.run()
        assert taken and 0 < taken["records"] < len(result.records)
        RESULTS["snapshot"] = {
            "at_job": total_jobs // 2,
            "records": taken["records"],
            "final_records": len(result.records),
            "seconds": taken["seconds"],
        }
        print(f"\nmid-run snapshot: {taken['records']} of {len(result.records)}"
              f" final records in {taken['seconds'] * 1000:.1f} ms")
