"""Ingest benchmark -- batch post-pass vs streaming vs worker-process shards.

Measures, with equivalence of all record sets asserted first:

* **replay throughput** (messages/s): a campaign's datagram stream is
  captured once, then replayed into (a) the batch path (persist raw +
  post-pass consolidation), (b) one streaming consolidator and (c) the
  process-sharded front (one OS worker per shard) -- isolating pure ingest
  cost from collection/hashing.
  Per-arm setup (store construction, worker spawn) runs *outside* the
  timer, so every arm is measured at steady state,
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
batch path's (it skips the raw-message table entirely).  Process-sharded
replay carries no floor -- measured on 2 cores it does not beat the single
in-process shard (docs/architecture.md, "Worker processes") -- so its ratio
to the streaming arm is recorded with the cpu count
(``replay.process_vs_in_process``) for whoever reruns this on more cores.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator, ShardedIngest
from repro.postprocess.consolidate import Consolidator
from repro.transport.receiver import MessageReceiver
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Opt-in large-scale arm: msg/s vs process-worker count at a campaign scale
#: an order of magnitude above the default (slow -- minutes, not seconds).
CURVE = os.environ.get("REPRO_BENCH_INGEST_CURVE", "") not in ("", "0")
CURVE_SCALE = float(os.environ.get("REPRO_BENCH_INGEST_CURVE_SCALE", "0.1"))
SCALE = 0.0025 if SMOKE else 0.01
SEED = 2025
CPUS = len(os.sched_getaffinity(0))
#: Worker count for the process-sharded arm: one per core, floor 2 so the
#: arm exercises real cross-process routing even on a single-core host.
PROCESS_SHARDS = max(2, min(4, CPUS))

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
    def test_batch_vs_streaming_vs_sharded(self, datagram_stream):
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

        def setup_sharded_process():
            # worker spawn happens here, outside the timer
            return ShardedIngest(MessageStore(), shards=PROCESS_SHARDS)

        def run_sharded(front):
            for datagram in datagram_stream:
                front.handle_datagram(datagram)
            records = front.finalize()
            return records, {"peak_open_groups": front.peak_open_processes}

        process_arm = f"sharded-{PROCESS_SHARDS}-process"
        table = TextTable(["ingest path", "messages/s", "seconds", "peak open groups"],
                          title=f"Replay ingest throughput ({len(datagram_stream)}"
                                " datagrams)")
        reference = None
        for name, setup, runner in (
            ("batch", setup_batch, run_batch),
            ("streaming", setup_streaming, run_streaming),
            (process_arm, setup_sharded_process, run_sharded),
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

        ratio = (arms[process_arm]["messages_per_s"]
                 / arms["streaming"]["messages_per_s"])
        print(f"{process_arm} / streaming = {ratio:.2f}x on {CPUS} cpu(s)")
        RESULTS["replay"] = {
            "datagrams": len(datagram_stream),
            "process_vs_in_process": {"arm": process_arm, "cpus": CPUS,
                                      "ratio": ratio},
            **arms}
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
            (f"sharded-{PROCESS_SHARDS}-process",
             {"ingest_mode": "streaming", "ingest_shards": PROCESS_SHARDS,
              "keep_raw_messages": False}),
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


@pytest.mark.skipif(not CURVE, reason="set REPRO_BENCH_INGEST_CURVE=1 to run "
                    "the large-scale msg/s-vs-core-count curve (minutes)")
class TestCoreCountCurve:
    """Replay throughput vs shard count at 10x the default scale (1 shard
    runs in-process, N > 1 as N worker processes).

    Worker counts are capped at the visible core count -- a point the host
    cannot physically parallelise would chart IPC overhead, not scaling.
    The recorded ``cpus`` field tells readers how far the curve could go.
    """

    def test_throughput_vs_worker_count(self):
        campaign = DeploymentCampaign(
            config=CampaignConfig(scale=CURVE_SCALE, seed=SEED,
                                  loss_rate=0.0002))
        campaign.prepare()
        captured: list[bytes] = []
        campaign.channel.subscribe(captured.append)
        campaign.run()

        counts = sorted({1, 2, 4, 8, CPUS})
        points = {}
        reference = None
        table = TextTable(["shards (1 = in-process)", "messages/s", "seconds"],
                          title=f"Ingest scaling curve (scale={CURVE_SCALE}, "
                                f"{len(captured)} datagrams, {CPUS} cores)")
        for workers in counts:
            if workers > CPUS:
                # Record the skip instead of silently omitting the point: a
                # 1-core box would otherwise emit a single-point curve that
                # reads as a complete scaling measurement.
                points[str(workers)] = {
                    "skipped": True,
                    "reason": f"requires {workers} cores, host exposes {CPUS}"
                              " -- the point would chart IPC overhead, not"
                              " scaling",
                }
                table.add_row([str(workers), "skipped",
                               f"needs {workers} cores"])
                continue
            front = ShardedIngest(MessageStore(), shards=workers)
            start = time.perf_counter()
            for datagram in captured:
                front.handle_datagram(datagram)
            records = front.finalize()
            seconds = time.perf_counter() - start
            if reference is None:
                reference = _record_set(records)
            else:
                assert _record_set(records) == reference
            points[str(workers)] = {
                "seconds": seconds,
                "messages_per_s": len(captured) / seconds,
            }
            table.add_row([str(workers),
                           f"{points[str(workers)]['messages_per_s']:,.0f}",
                           f"{seconds:.2f}"])
        print()
        print(table.render())
        RESULTS["core_curve"] = {
            "scale": CURVE_SCALE,
            "datagrams": len(captured),
            "cpus": CPUS,
            "points": points,
        }


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
