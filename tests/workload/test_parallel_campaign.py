"""Tests for the process-parallel campaign driver (``campaign_workers > 1``).

The determinism contract under test: a parallel run's consolidated records,
Slurm accounting and operational counters must be equivalent to the serial
driver's -- identical record order in batch mode, a canonical permutation in
streaming mode (arrival interleaving across users differs by design).
"""

import pytest

from repro.faults.plan import ChannelFaultProfile, FaultPlan, StoreFaultProfile
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.parallel import partition_plans, plan_profiles
from repro.workload.profiles import DEFAULT_PROFILES

#: A subset keeps each extra campaign run fast (pattern of the streaming
#: equivalence suite); partitioning still gets several profiles to balance.
PROFILES = DEFAULT_PROFILES[:4]


def _run(workers=1, *, seed=17, scale=0.0, loss_rate=0.01, profiles=PROFILES,
         **overrides):
    config = CampaignConfig(scale=scale, seed=seed, loss_rate=loss_rate,
                            campaign_workers=workers, **overrides)
    return DeploymentCampaign(config=config, profiles=profiles).run()


def _batch_canon(records):
    """Order-sensitive canonical form: batch-mode parallel must match exactly."""
    return [tuple(getattr(r, name) for name in r.__dataclass_fields__)
            for r in records]


def _sorted_canon(records):
    """Order-insensitive form for streaming mode (a permutation by design)."""
    return sorted(_batch_canon(records))


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(CollectionError, match="campaign_workers"):
            DeploymentCampaign(CampaignConfig(campaign_workers=0)).prepare()

    def test_channel_faults_do_not_merge(self):
        plan = FaultPlan(channel=ChannelFaultProfile(reorder_rate=0.1))
        config = CampaignConfig(campaign_workers=2, fault_plan=plan)
        with pytest.raises(CollectionError, match="channel fault"):
            DeploymentCampaign(config).prepare()

    def test_store_faults_still_allowed(self):
        plan = FaultPlan(store=StoreFaultProfile(error_rate=0.01))
        config = CampaignConfig(scale=0.0, campaign_workers=2, fault_plan=plan)
        campaign = DeploymentCampaign(config, profiles=PROFILES)
        campaign.prepare()  # parent-side faults merge fine

    def test_sink_mode_campaign_cannot_run(self):
        campaign = DeploymentCampaign(CampaignConfig(scale=0.0),
                                      datagram_sink=lambda datagram: None)
        with pytest.raises(CollectionError, match="sink"):
            campaign.run()


class TestPlanning:
    def test_offsets_are_prefix_sums(self):
        config = CampaignConfig(scale=0.0, seed=3)
        plans = plan_profiles(config, PROFILES)
        job = pid = clock = inode = 0
        for plan in plans:
            assert (plan.job_offset, plan.pid_offset,
                    plan.clock_offset, plan.inode_offset) == (job, pid, clock, inode)
            job += plan.jobs
            pid += plan.pids
            clock += plan.clock
            inode += plan.inodes

    def test_plan_is_deterministic(self):
        config = CampaignConfig(scale=0.0, seed=3)
        assert plan_profiles(config, PROFILES) == plan_profiles(config, PROFILES)

    def test_partition_covers_each_profile_once(self):
        plans = plan_profiles(CampaignConfig(scale=0.0, seed=3), PROFILES)
        assignments = partition_plans(plans, 3)
        flat = sorted(index for assignment in assignments for index in assignment)
        assert flat == list(range(len(plans)))
        assert all(assignment == sorted(assignment) for assignment in assignments)

    def test_partition_drops_empty_workers(self):
        plans = plan_profiles(CampaignConfig(scale=0.0, seed=3), PROFILES)
        assignments = partition_plans(plans, 32)
        assert len(assignments) <= len(plans)
        assert all(assignments)


class TestEquivalence:
    @pytest.mark.parametrize("seed,loss_rate", [(17, 0.01), (99, 0.0)])
    def test_batch_mode_records_identical_in_order(self, seed, loss_rate):
        serial = _run(1, seed=seed, loss_rate=loss_rate)
        parallel = _run(3, seed=seed, loss_rate=loss_rate)
        assert _batch_canon(parallel.records) == _batch_canon(serial.records)

    def test_streaming_matches_serial(self):
        kwargs = dict(seed=23, loss_rate=0.01, ingest_mode="streaming",
                      keep_raw_messages=False)
        serial = _run(1, **kwargs)
        parallel = _run(3, **kwargs)
        assert _sorted_canon(parallel.records) == _sorted_canon(serial.records)

    def test_streaming_process_shards_match_serial(self):
        kwargs = dict(seed=23, loss_rate=0.0, ingest_mode="streaming",
                      ingest_shards=2, keep_raw_messages=False)
        serial = _run(1, **kwargs)
        parallel = _run(2, **kwargs)
        assert _sorted_canon(parallel.records) == _sorted_canon(serial.records)

    def test_counters_and_accounting_match_serial(self):
        serial = _run(1, seed=41)
        parallel = _run(3, seed=41)
        assert parallel.jobs_run == serial.jobs_run
        assert parallel.processes_run == serial.processes_run
        assert parallel.channel.datagrams_dropped == serial.channel.datagrams_dropped
        serial_jobs = [(j.job_id, j.user, j.name, j.node, j.submit_time,
                        j.end_time, j.process_count, j.step_count)
                       for j in serial.cluster.scheduler.jobs]
        parallel_jobs = [(j.job_id, j.user, j.name, j.node, j.submit_time,
                          j.end_time, j.process_count, j.step_count)
                         for j in parallel.cluster.scheduler.jobs]
        assert parallel_jobs == serial_jobs
        serial_stats = serial.statistics()
        parallel_stats = parallel.statistics()
        assert set(parallel_stats) == set(serial_stats)
        # Digest caches start cold in every worker, so only the cache-hit
        # accounting may drift; everything observable must match.
        for key in ("jobs_run", "processes_run", "records", "datagrams_sent",
                    "messages_sent", "processes_collected", "incomplete_fraction"):
            assert parallel_stats[key] == serial_stats[key], key

    def test_workers_beyond_profiles_clamp(self):
        serial = _run(1, seed=5, loss_rate=0.0, profiles=DEFAULT_PROFILES[:2])
        parallel = _run(8, seed=5, loss_rate=0.0, profiles=DEFAULT_PROFILES[:2])
        assert _batch_canon(parallel.records) == _batch_canon(serial.records)

    def test_on_job_fires_for_every_job(self):
        config = CampaignConfig(scale=0.0, seed=7, loss_rate=0.0,
                                campaign_workers=3)
        campaign = DeploymentCampaign(config, profiles=PROFILES)
        seen = []
        campaign.on_job = seen.append
        result = campaign.run()
        assert len(seen) == result.jobs_run
        assert seen[-1] == result.jobs_run


class TestProfiling:
    def test_stage_timings_surface_in_result(self):
        result = _run(1, seed=11, loss_rate=0.0)
        timings = result.stage_timings
        for stage in ("campaign.prepare", "campaign.jobs", "campaign.finalize",
                      "cluster.run_job", "collect.start", "collect.end",
                      "transport.encode", "transport.send"):
            assert stage in timings, stage
            assert timings[stage]["calls"] >= 1
            assert timings[stage]["seconds"] >= 0.0

    def test_parallel_run_merges_worker_timings(self):
        result = _run(2, seed=11, loss_rate=0.0)
        timings = result.stage_timings
        assert "driver.feed" in timings
        # Worker-side stages were merged back into the parent's timer.
        assert timings["cluster.run_job"]["calls"] == result.jobs_run

    def test_statistics_expose_cache_effectiveness(self):
        result = _run(1, seed=11, loss_rate=0.0)
        stats = result.statistics()
        for key in ("hashes_computed", "hash_cache_hits",
                    "hash_content_cache_hits", "hash_cache_hit_rate",
                    "compare_cache_hits", "compare_cache_misses"):
            assert key in stats, key
        assert stats["hash_cache_hits"] > 0
        assert 0.0 <= stats["hash_cache_hit_rate"] <= 1.0
