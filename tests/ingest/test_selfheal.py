"""The chaos-equivalence suite: the ingest pipeline heals under injected faults.

Every test here runs under a *deterministic* fault plan (seeded via
``REPRO_CHAOS_SEED``, default 7), so a failure reproduces exactly -- run the
suite alone with ``pytest -m chaos``.  The pins, in rising order of ambition:

* a SIGKILLed (or stalled) shard worker is healed by the supervisor, and the
  record output is *identical* to the same shards run in-process (the
  ``composed_shards`` reference) because the resend buffer replays
  everything unacknowledged -- with the recovery visible in
  ``statistics()`` (``worker_restarts``) and the loss counters at zero;
* when the crash repeats past the restart budget, the failure is an honest
  :class:`~repro.util.errors.WorkerCrashError`, never a hang, and never an
  orphaned child process;
* under channel faults (loss, duplication, corruption, truncation, jitter)
  streaming ingest equals the batch post-pass over the surviving messages,
  record for record; reordering -- the one fault that can legitimately cross
  the idle-close grace -- still preserves the process-key sets;
* store-level transient faults are absorbed by the write-retry layer without
  changing a single record;
* a whole campaign survives a mixed-hostility plan end to end.
"""

import multiprocessing
import os

import pytest

from repro.db.store import MessageStore
from repro.faults import (
    ChannelFaultProfile,
    FaultPlan,
    FaultyChannel,
    StoreFaultInjector,
    StoreFaultProfile,
    WorkerFaultProfile,
    preset_plans,
)
from repro.ingest import ShardedIngest
from repro.util.errors import WorkerCrashError
from repro.util.retry import RetryPolicy
from repro.workload import CampaignConfig, DeploymentCampaign

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

#: Supervisor keys that are legitimately nonzero only on the healed side.
_SUPERVISOR_KEYS = ("worker_restarts", "resend_replayed_batches")


def _record_set(records):
    return sorted(tuple(getattr(r, name) for name in r.__dataclass_fields__)
                  for r in records)


def _key_set(records):
    return {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time) for r in records}


def _shard_worker_children():
    return [process for process in multiprocessing.active_children()
            if process.name.startswith("siren-shard-")]


def _trim(front: ShardedIngest) -> ShardedIngest:
    """Shorten supervision latencies so the chaos suite stays fast."""
    front.backend.drain_grace = 1.0
    front.backend.restart_backoff = RetryPolicy(
        attempts=front.backend.max_restarts, base_delay=0.02, max_delay=0.1)
    return front


class TestSupervisedRestart:
    def test_sigkill_every_shard_heals_identical_to_unkilled_shards(
            self, dual_ingest, composed_shards):
        harness = dual_ingest(seed=CHAOS_SEED)
        plan = FaultPlan(seed=CHAOS_SEED, workers=(
            WorkerFaultProfile(shard=0, kill_after_batches=3),
            WorkerFaultProfile(shard=1, kill_after_batches=5),
        ))
        reference = composed_shards(2, batch_size=16, flush_batch_size=8)
        process_front = _trim(ShardedIngest(MessageStore(), shards=2,
                                            batch_size=16, flush_batch_size=8,
                                            fault_plan=plan))
        reference.attach(harness.channel)
        process_front.attach(harness.channel)

        harness.workload.emit_campaign(processes=60)

        composed = reference.finalize()
        processed = process_front.finalize()
        assert _record_set(processed) == _record_set(composed)

        stats = process_front.statistics()
        assert stats["worker_restarts"] == 2          # both kills healed
        assert stats["restart_lost_groups"] == 0      # replay window covered
        assert stats["restart_lost_datagrams"] == 0
        assert stats["resend_replayed_batches"] > 0
        # Beyond the records: every operational counter (messages consumed,
        # early/idle closes, late messages...) must match the unkilled shards
        # exactly -- the replay re-ran the same epochs on the same batches.
        reference_stats = reference.statistics()
        for side in (stats, reference_stats):
            for key in _SUPERVISOR_KEYS:
                side.pop(key)
        assert stats == reference_stats
        assert _shard_worker_children() == []

    def test_external_sigkill_mid_stream_heals(self, dual_ingest, composed_shards):
        harness = dual_ingest(seed=CHAOS_SEED + 1)
        reference = composed_shards(2, batch_size=16, flush_batch_size=8)
        process_front = _trim(ShardedIngest(MessageStore(), shards=2,
                                            batch_size=16, flush_batch_size=8))
        reference.attach(harness.channel)
        process_front.attach(harness.channel)

        for pid in range(30):
            harness.workload.emit_process(pid, time=100 + pid // 10)
        process_front.backend.processes[0].kill()  # a genuine external SIGKILL
        for pid in range(30, 60):
            harness.workload.emit_process(pid, time=103 + pid // 10)
        harness.workload.end_all()

        composed = reference.finalize()
        processed = process_front.finalize()
        assert _record_set(processed) == _record_set(composed)
        assert process_front.worker_restarts == 1
        assert process_front.statistics()["restart_lost_groups"] == 0
        assert _shard_worker_children() == []

    def test_stalled_worker_is_killed_and_healed(self, dual_ingest, composed_shards):
        harness = dual_ingest(seed=CHAOS_SEED + 2)
        plan = FaultPlan(seed=CHAOS_SEED, workers=(
            WorkerFaultProfile(shard=0, stall_after_batches=2, stall_seconds=60),))
        reference = composed_shards(2, batch_size=16, flush_batch_size=8)
        process_front = _trim(ShardedIngest(MessageStore(), shards=2,
                                            batch_size=16, flush_batch_size=8,
                                            fault_plan=plan, stall_timeout=1.0))
        reference.attach(harness.channel)
        process_front.attach(harness.channel)

        harness.workload.emit_campaign(processes=40)

        composed = reference.finalize()
        processed = process_front.finalize()
        assert _record_set(processed) == _record_set(composed)
        assert process_front.worker_restarts >= 1   # the stall was broken
        assert process_front.statistics()["restart_lost_groups"] == 0
        assert _shard_worker_children() == []

    def test_restart_budget_exhaustion_raises_and_leaves_no_orphans(self, dual_ingest):
        harness = dual_ingest(seed=CHAOS_SEED + 3)
        plan = FaultPlan(seed=CHAOS_SEED, workers=(
            WorkerFaultProfile(shard=0, kill_after_batches=1, repeat=True),))
        front = _trim(ShardedIngest(MessageStore(), shards=2, batch_size=8,
                                    max_restarts=1, fault_plan=plan))
        front.attach(harness.channel)
        with pytest.raises(WorkerCrashError, match="shard 0 worker died"):
            harness.workload.emit_campaign(processes=40)
            front.finalize()
        assert front.worker_restarts == 1             # the budget was spent
        assert front.backend.alive_workers() == []
        assert _shard_worker_children() == []
        # The original raise travelled up the (fire-and-forget) sender and
        # was swallowed there; the pool must keep resurfacing the crash on
        # every further use -- never a silent no-op or a bland "closed".
        with pytest.raises(WorkerCrashError, match="restart budget of 1 exhausted"):
            front.backend.sync()


class TestTransportFaultEquivalence:
    @pytest.mark.parametrize("preset", ["loss-5pct", "dup-10pct", "corrupt-5pct",
                                        "truncate-5pct", "jitter-10pct",
                                        "mixed-hostile"])
    def test_streaming_equals_batch_under_order_preserving_faults(
            self, dual_ingest, preset):
        plan = preset_plans(seed=CHAOS_SEED)[preset]
        assert plan.channel.order_preserving
        harness = dual_ingest(seed=CHAOS_SEED)
        # Interpose the fault pipeline between the sender and the shared
        # channel: both ingest paths observe the *same* surviving datagrams.
        faulty = FaultyChannel(plan=plan, inner=harness.channel)
        harness.workload.sender.channel = faulty
        front = ShardedIngest(MessageStore(), shards=1, batch_size=16,
                              flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=50)
        faulty.flush()  # end of stream: deliver any held-back datagrams

        assert _record_set(front.finalize()) == _record_set(harness.batch_records())
        assert front.decode_errors == harness.batch_receiver.decode_errors
        if plan.channel.corrupt_rate or plan.channel.truncate_rate:
            assert faulty.corrupted + faulty.truncated > 0
        assert front.quarantined == min(front.decode_errors,
                                        front.quarantine_capacity)

    def test_reordering_preserves_process_key_sets(self, dual_ingest):
        plan = preset_plans(seed=CHAOS_SEED)["reorder-5pct"]
        assert not plan.channel.order_preserving
        harness = dual_ingest(seed=CHAOS_SEED)
        faulty = FaultyChannel(plan=plan, inner=harness.channel)
        harness.workload.sender.channel = faulty
        front = ShardedIngest(MessageStore(), shards=1, batch_size=16,
                              flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=50)
        faulty.flush()

        streamed = front.finalize()
        batch = harness.batch_records()
        assert faulty.reordered > 0
        # Reordering may split a group across the idle grace, so records can
        # differ in content -- but never in which processes exist.
        assert _key_set(streamed) == _key_set(batch)
        assert front.statistics()["late_messages"] >= 0

    def test_workers_equal_composed_shards_under_drop_and_dup(
            self, dual_ingest, composed_shards):
        # drop+dup keeps every delivered datagram decodable, so the workers
        # and the in-process shards see identical flush-epoch boundaries and
        # the *full* statistics dicts must match.  (Corrupt/truncate faults
        # shift epoch boundaries between the two -- shipped batches count
        # raw datagrams, an in-process receiver flushes on decoded messages
        # -- so there only the record output and decode counters are
        # comparable, which the parametrized streaming==batch test above
        # already pins.)
        plan = FaultPlan(seed=CHAOS_SEED, channel=ChannelFaultProfile(
            drop_rate=0.05, duplicate_rate=0.05))
        harness = dual_ingest(seed=CHAOS_SEED)
        faulty = FaultyChannel(plan=plan, inner=harness.channel)
        harness.workload.sender.channel = faulty
        reference = composed_shards(2, batch_size=16, flush_batch_size=8)
        process_front = _trim(ShardedIngest(MessageStore(), shards=2,
                                            batch_size=16, flush_batch_size=8))
        reference.attach(harness.channel)
        process_front.attach(harness.channel)

        harness.workload.emit_campaign(processes=50)
        faulty.flush()

        composed = reference.finalize()
        processed = process_front.finalize()
        assert _record_set(processed) == _record_set(composed)
        assert process_front.statistics() == reference.statistics()
        assert _shard_worker_children() == []


class TestStoreFaultResilience:
    def test_write_retries_absorb_transient_store_faults(self, dual_ingest):
        plan = FaultPlan(seed=CHAOS_SEED,
                         store=StoreFaultProfile(error_rate=0.05, error_burst=2))
        harness = dual_ingest(seed=CHAOS_SEED)
        store = MessageStore(retry=RetryPolicy(attempts=6, base_delay=0.0))
        store._sleep = lambda _: None
        injector = StoreFaultInjector(plan).install(store)
        front = ShardedIngest(store, shards=1, batch_size=16, flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=50)

        assert _record_set(front.finalize()) == _record_set(harness.batch_records())
        assert injector.transient_raised > 0     # faults genuinely fired
        assert store.write_retries >= injector.transient_raised


class TestCampaignUnderChaos:
    def test_campaign_survives_mixed_hostility_end_to_end(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            channel=ChannelFaultProfile(drop_rate=0.03, duplicate_rate=0.03,
                                        corrupt_rate=0.01, truncate_rate=0.01),
            store=StoreFaultProfile(error_rate=0.01, error_burst=2),
            workers=(WorkerFaultProfile(shard=0, kill_after_batches=1),),
        )
        config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                ingest_mode="streaming", ingest_shards=2,
                                fault_plan=plan)
        campaign = DeploymentCampaign(config=config)
        campaign.prepare()
        _trim(campaign.ingest)
        result = campaign.run()

        assert result.records                      # the campaign produced output
        assert result.fault_counters["dropped"] > 0
        assert result.worker_restarts >= 1         # the kill was healed
        assert result.ingest.statistics()["restart_lost_groups"] == 0
        assert result.quarantined <= result.decode_errors
        assert result.store_fault_injector is not None
        if result.store_fault_injector.transient_raised:
            assert result.store.write_retries >= 1
        assert _shard_worker_children() == []

    def test_campaign_chaos_run_is_reproducible(self):
        def run():
            plan = FaultPlan(seed=CHAOS_SEED,
                             channel=ChannelFaultProfile(drop_rate=0.05))
            config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                    ingest_mode="streaming",
                                    fault_plan=plan)
            result = DeploymentCampaign(config=config).run()
            return _record_set(result.records), result.fault_counters

        first_records, first_counters = run()
        second_records, second_counters = run()
        assert first_records == second_records
        assert first_counters == second_counters
