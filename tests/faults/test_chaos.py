"""The chaos-equivalence suite: the ingest pipeline under injected faults.

Every test here runs under a *deterministic* fault plan (seeded via
``REPRO_CHAOS_SEED``, default 7), so a failure reproduces exactly -- run the
suite alone with ``pytest -m chaos``.  The pins:

* under channel faults (loss, duplication, corruption, truncation, jitter)
  streaming ingest equals the post-pass oracle over the surviving messages,
  record for record; reordering -- the one fault that can legitimately cross
  the idle-close grace -- still preserves the process-key sets;
* store-level transient faults are absorbed by the write-retry layer without
  changing a single record;
* a whole campaign survives a mixed-hostility plan end to end.
"""

import os

import pytest

from repro.db.store import MessageStore
from repro.faults import (
    ChannelFaultProfile,
    FaultPlan,
    FaultyChannel,
    StoreFaultInjector,
    StoreFaultProfile,
    preset_plans,
)
from repro.ingest import IncrementalConsolidator
from repro.ingest.incremental import QUARANTINE_CAPACITY
from repro.util.retry import RetryPolicy
from repro.workload import CampaignConfig, DeploymentCampaign

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def _record_set(records):
    return sorted(tuple(getattr(r, name) for name in r.__dataclass_fields__)
                  for r in records)


def _key_set(records):
    return {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time) for r in records}


class TestTransportFaultEquivalence:
    @pytest.mark.parametrize("preset", ["loss-5pct", "dup-10pct", "corrupt-5pct",
                                        "truncate-5pct", "jitter-10pct",
                                        "mixed-hostile"])
    def test_streaming_equals_batch_under_order_preserving_faults(
            self, dual_ingest, preset):
        plan = preset_plans(seed=CHAOS_SEED)[preset]
        assert plan.channel.reorder_rate == 0.0
        harness = dual_ingest(seed=CHAOS_SEED)
        # Interpose the fault pipeline between the sender and the shared
        # channel: both ingest paths observe the *same* surviving datagrams.
        faulty = FaultyChannel(plan=plan, inner=harness.channel)
        harness.workload.sender.channel = faulty
        front = IncrementalConsolidator(MessageStore(), batch_size=16,
                                        flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=50)
        faulty.flush()  # end of stream: deliver any held-back datagrams

        assert _record_set(front.finalize()) == _record_set(harness.batch_records())
        assert front.decode_errors == harness.batch_ingest.decode_errors
        if plan.channel.corrupt_rate or plan.channel.truncate_rate:
            assert faulty.corrupted + faulty.truncated > 0
        assert front.quarantined == min(front.decode_errors, QUARANTINE_CAPACITY)

    def test_reordering_preserves_process_key_sets(self, dual_ingest):
        plan = preset_plans(seed=CHAOS_SEED)["reorder-5pct"]
        assert plan.channel.reorder_rate > 0.0
        harness = dual_ingest(seed=CHAOS_SEED)
        faulty = FaultyChannel(plan=plan, inner=harness.channel)
        harness.workload.sender.channel = faulty
        front = IncrementalConsolidator(MessageStore(), batch_size=16,
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


class TestStoreFaultResilience:
    def test_write_retries_absorb_transient_store_faults(self, dual_ingest):
        plan = FaultPlan(seed=CHAOS_SEED,
                         store=StoreFaultProfile(error_rate=0.05, error_burst=2))
        harness = dual_ingest(seed=CHAOS_SEED)
        store = MessageStore(retry=RetryPolicy(attempts=6, base_delay=0.0))
        store._sleep = lambda _: None
        injector = StoreFaultInjector(plan).install(store)
        front = IncrementalConsolidator(store, batch_size=16, flush_batch_size=8)
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
        )
        config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                fault_plan=plan)
        result = DeploymentCampaign(config=config).run()

        assert result.records                      # the campaign produced output
        assert result.fault_counters["dropped"] > 0
        assert result.quarantined <= result.decode_errors
        assert result.store_fault_injector is not None
        if result.store_fault_injector.transient_raised:
            assert result.store.write_retries >= 1

    def test_campaign_chaos_run_is_reproducible(self):
        def run():
            plan = FaultPlan(seed=CHAOS_SEED,
                             channel=ChannelFaultProfile(drop_rate=0.05))
            config = CampaignConfig(scale=0.005, seed=CHAOS_SEED, loss_rate=0.0,
                                    fault_plan=plan)
            result = DeploymentCampaign(config=config).run()
            return _record_set(result.records), result.fault_counters

        first_records, first_counters = run()
        second_records, second_counters = run()
        assert first_records == second_records
        assert first_counters == second_counters
