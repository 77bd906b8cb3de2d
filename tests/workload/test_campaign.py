"""Tests for the deployment-campaign runner."""

import hashlib

import pytest

from repro.collector.classify import ExecutableCategory
from repro.core import AnalysisPipeline
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES, PROFILES_BY_NAME


#: (seed, stream SHA-256, bytes on the wire) of the lossless scale-0.0 campaign.
WIRE_PINS = [
    (7, "92dc9a95a9ae086e794c7f440c7723938279d18b7b0f9495ea09cf33460b73d9", 4_557_315),
    (11, "37b07f7fdf54f629a55d92988c8eaf21e9e430d93d0a2f6bb76cc8d324c59570", 4_557_440),
]


def _record_list(records):
    """Order-sensitive canonical form (streaming must match batch exactly)."""
    return [tuple(getattr(r, name) for name in r.__dataclass_fields__)
            for r in records]


class TestCampaignConfig:
    def test_jobs_scale(self):
        config = CampaignConfig(scale=0.01, ensure_template_coverage=False)
        assert config.jobs_for(PROFILES_BY_NAME["user_1"]) == round(11_782 * 0.01)
        assert config.jobs_for(PROFILES_BY_NAME["user_12"]) == 1

    def test_template_coverage_lifts_minimum(self):
        config = CampaignConfig(scale=0.0001, ensure_template_coverage=True)
        profile = PROFILES_BY_NAME["user_8"]
        assert config.jobs_for(profile) >= len(profile.templates)


class TestCampaignExecution:
    def test_shared_campaign_basic_invariants(self, campaign_result):
        result = campaign_result
        assert result.jobs_run == result.cluster.scheduler.job_count
        assert result.processes_run > 1000
        assert len(result.records) > 0
        # Only rank-0 processes are collected, so records < processes.
        assert len(result.records) <= result.processes_run
        assert result.collector.processes_collected == \
            result.processes_run - result.collector.processes_skipped
        assert result.cluster.runtime.hook_failures == 0

    def test_all_twelve_users_present(self, campaign_result):
        assert len(campaign_result.user_names) == 12
        assert set(campaign_result.user_names.values()) == {
            f"user_{index}" for index in range(1, 13)}

    def test_all_categories_observed(self, campaign_result):
        categories = {record.category for record in campaign_result.records if record.category}
        assert categories == {c.value for c in ExecutableCategory}

    def test_udp_loss_produces_small_incomplete_fraction(self, campaign_result):
        assert campaign_result.channel.datagrams_dropped >= 0
        assert campaign_result.incomplete_fraction < 0.02

    def test_unknown_icon_instance_present(self, campaign_result):
        unknown = [record for record in campaign_result.records
                   if record.executable.endswith("/a.out")]
        assert unknown
        assert all(record.category == "user" for record in unknown)

    def test_determinism_of_small_campaign(self):
        config = CampaignConfig(scale=0.0, seed=7, min_jobs_per_user=1)
        first = DeploymentCampaign(config=config).run()
        second = DeploymentCampaign(config=config).run()
        assert first.jobs_run == second.jobs_run
        assert first.processes_run == second.processes_run
        assert len(first.records) == len(second.records)
        first_exes = sorted(record.executable for record in first.records)
        second_exes = sorted(record.executable for record in second.records)
        assert first_exes == second_exes

    @pytest.mark.parametrize("seed, sha256, wire_bytes", WIRE_PINS)
    def test_datagram_stream_is_pinned_byte_for_byte(self, seed, sha256, wire_bytes):
        """The wire is an interface: what the scale-0.0 campaign puts on it
        (SHA-256 over ``datagram + b"\\n"``) is the commit before the sender
        framed bursts, regenerated under that commit."""
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=0.0,
                                ingest_mode="streaming", keep_raw_messages=False)
        campaign = DeploymentCampaign(config=config)
        campaign.prepare()
        digest, sizes = hashlib.sha256(), []
        campaign.channel.subscribe(lambda datagram: (digest.update(datagram + b"\n"),
                                                     sizes.append(len(datagram))))
        sender = campaign.run().collector.sender
        assert (sender.messages_sent, sender.datagrams_sent, sender.send_errors) == (
            24_712, 25_094, 0)
        assert (len(sizes), sum(sizes)) == (25_094, wire_bytes)
        assert digest.hexdigest() == sha256

    def test_prepare_is_idempotent(self):
        campaign = DeploymentCampaign(CampaignConfig(scale=0.0))
        campaign.prepare()
        manifest = campaign.manifest
        campaign.prepare()
        assert campaign.manifest is manifest

    def test_zero_loss_campaign_has_no_incomplete_records(self):
        config = CampaignConfig(scale=0.0, seed=3, loss_rate=0.0)
        result = DeploymentCampaign(config=config).run()
        assert result.incomplete_fraction == 0.0


class TestStreamingIngest:
    """The streaming ingest spine: equivalence, snapshots, real sockets."""

    #: A small subset keeps each extra campaign run fast; the shared
    #: campaign fixture already exercises the full 12-user batch path.
    PROFILES = DEFAULT_PROFILES[:4]

    def _run(self, *, loss_rate: float, ingest_mode: str = "batch",
             ingest_shards: int = 1, transport: str = "memory", seed: int = 17,
             **overrides):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                                ingest_mode=ingest_mode, ingest_shards=ingest_shards,
                                transport=transport, **overrides)
        return DeploymentCampaign(config=config, profiles=self.PROFILES).run()

    @pytest.mark.parametrize("loss_rate", [0.0, 0.0002, 0.01])
    def test_streaming_identical_to_batch(self, loss_rate):
        batch = self._run(loss_rate=loss_rate)
        streaming = self._run(loss_rate=loss_rate, ingest_mode="streaming",
                              keep_raw_messages=False)
        assert _record_list(streaming.records) == _record_list(batch.records)
        assert streaming.ingest is not None
        assert streaming.ingest.statistics()["records_built"] == len(batch.records)
        # Pure streaming never materialised the raw messages table.
        assert streaming.store.message_count() == 0
        assert batch.store.message_count() > 0

    def test_sharded_streaming_identical_to_batch(self):
        batch = self._run(loss_rate=0.01)
        sharded = self._run(loss_rate=0.01, ingest_mode="streaming", ingest_shards=4,
                            keep_raw_messages=False)
        assert _record_list(sharded.records) == _record_list(batch.records)
        stats = sharded.ingest.statistics()
        assert stats["shards"] == 4
        assert stats["records_built"] == len(batch.records)
        # Streaming held far fewer groups open than the total process count.
        assert 0 < sharded.ingest.peak_open_processes < len(batch.records)

    def test_streaming_keeps_raw_messages_when_asked(self):
        streaming = self._run(loss_rate=0.0, ingest_mode="streaming",
                              keep_raw_messages=True)
        assert streaming.store.message_count() > 0
        assert streaming.store.process_count() == len(streaming.records)

    def test_mid_run_snapshot_is_analyzable(self):
        config = CampaignConfig(scale=0.0, seed=4, loss_rate=0.0002,
                                ingest_mode="streaming", keep_raw_messages=False)
        campaign = DeploymentCampaign(config=config, profiles=self.PROFILES)
        snapshots: list[list] = []

        def on_job(jobs_run: int) -> None:
            if jobs_run == 5:
                snapshots.append(campaign.snapshot())

        campaign.on_job = on_job
        result = campaign.run()
        (snapshot,) = snapshots
        assert 0 < len(snapshot) < len(result.records)
        rows = AnalysisPipeline(snapshot, result.user_names).table2_user_activity()
        assert rows and sum(row.total_processes for row in rows) > 0
        # Every snapshotted process key is present in the final record set.
        final_keys = {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time)
                      for r in result.records}
        assert {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time)
                for r in snapshot} <= final_keys

    def test_socket_transport_end_to_end(self):
        """Sender -> real loopback UDP -> streaming receiver == in-memory batch."""
        batch = self._run(loss_rate=0.0, seed=9)
        socketed = self._run(loss_rate=0.0, seed=9, transport="socket",
                             ingest_mode="streaming", keep_raw_messages=False)
        assert _record_list(socketed.records) == _record_list(batch.records)
        assert socketed.ingest.decode_errors == 0
        assert socketed.incomplete_fraction == 0.0

    def test_invalid_ingest_mode_rejected(self):
        with pytest.raises(CollectionError):
            DeploymentCampaign(CampaignConfig(ingest_mode="firehose")).prepare()

    def test_invalid_transport_rejected(self):
        with pytest.raises(CollectionError):
            DeploymentCampaign(CampaignConfig(transport="carrier-pigeon")).prepare()


class TestHashingKnobs:
    def test_knobs_reach_the_collector(self):
        config = CampaignConfig(scale=0.0, hash_concurrency=3)
        campaign = DeploymentCampaign(config=config)
        campaign.prepare()
        assert campaign.collector.hasher.hash_concurrency == 3

    def test_content_hits_are_counted_and_change_no_record(self):
        """The campaign's byte-identical binaries under several paths are
        content hits, and every FILE_H still equals a direct hash of the file."""
        campaign = DeploymentCampaign(
            config=CampaignConfig(scale=0.0, seed=13, loss_rate=0.0))
        result = campaign.run()
        hasher = result.collector.hasher
        assert result.statistics()["hash_content_cache_hits"] == hasher.content_cache_hits
        assert hasher.content_cache_hits >= 1
        filesystem = result.cluster.filesystem
        direct = {}
        for record in result.records:
            if record.file_h and record.executable not in direct:
                direct[record.executable] = str(
                    hasher.hasher.hash(filesystem.read(record.executable)))
        assert direct
        assert all(record.file_h == direct[record.executable]
                   for record in result.records if record.file_h)
