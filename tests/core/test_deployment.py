"""One config hierarchy, one builder: both façades get the same deployment."""

import dataclasses
import multiprocessing
from pathlib import Path

import pytest

from repro.core import SirenConfig, SirenFramework
from repro.devtools.lint.knobs import parse_knob_table
from repro.faults.plan import ChannelFaultProfile, FaultPlan, StoreFaultProfile
from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

#: One profile keeps ``prepare()`` (cluster + corpus) at ~0.1 s per case.
PROFILES = DEFAULT_PROFILES[:1]

DEPLOYMENT_FIELDS = {
    "policy", "loss_rate", "max_datagram_size", "store_path", "seed",
    "hash_concurrency", "ingest_mode", "ingest_shards",
    "keep_raw_messages", "transport", "ingest_max_restarts",
    "store_retry_attempts", "quarantine_capacity", "fault_plan",
    "store_backend", "rollups",
}
CAMPAIGN_FIELDS = {"scale", "quirk_fraction", "min_jobs_per_user",
                   "ensure_template_coverage", "campaign_workers"}

FAULT_PLANS = {
    "no-faults": None,
    "channel-faults": FaultPlan(seed=3, channel=ChannelFaultProfile(drop_rate=0.1)),
    "store-faults": FaultPlan(seed=3, store=StoreFaultProfile(error_rate=0.01)),
}


def _shard_workers() -> list:
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("siren-shard-")]


def _wiring(deployment) -> dict:
    """Everything the builder decided, as comparable plain values."""
    channel = deployment.channel
    inner = getattr(channel, "inner", None)
    ingest = deployment.ingest
    return {
        "channel": type(channel).__name__,
        "inner_channel": type(inner).__name__ if inner is not None else None,
        "lossy": deployment.lossy_channel is not None
                 and deployment.lossy_channel.loss_rate,
        "front": type(deployment.front).__name__,
        "receiver": deployment.receiver is not None,
        "ingest": ingest is not None and (
            ingest.shards, ingest.persist_raw, type(ingest.backend).__name__,
            ingest.max_restarts, ingest.quarantine_capacity,
            ingest.fault_plan),
        "quarantine_capacity": deployment.quarantine.capacity
                               if deployment.quarantine is not None else 0,
        "store_path": deployment.store.path,
        "store_retry": deployment.store.retry.attempts,
        "store_faults": deployment.store_fault_injector is not None,
        "tiered": deployment.tiered is not None
                  and type(deployment.tiered.backend).__name__,
        "max_datagram_size": deployment.sender.max_datagram_size,
        "drain": deployment.drain.__name__,
    }


class TestConfigHierarchy:
    def test_field_sets_are_pinned(self):
        """A new knob is a visible diff here (and in the docs table)."""
        siren = [f.name for f in dataclasses.fields(SirenConfig)]
        campaign = [f.name for f in dataclasses.fields(CampaignConfig)]
        assert len(siren) == len(set(siren)) == 16
        assert set(siren) == DEPLOYMENT_FIELDS
        assert campaign[:len(siren)] == siren  # inherited, in order
        assert set(campaign[len(siren):]) == CAMPAIGN_FIELDS
        assert len(campaign) == 21

    def test_no_field_is_declared_twice(self):
        assert issubclass(CampaignConfig, SirenConfig)
        assert set(CampaignConfig.__annotations__) == CAMPAIGN_FIELDS
        assert set(SirenConfig.__annotations__) == DEPLOYMENT_FIELDS

    def test_docs_scope_column_says_where_each_field_is_declared(self):
        docs = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"
        rows = parse_knob_table(docs.read_text(encoding="utf-8"))
        scopes = {name: scope for name, (scope, _line) in rows.items()}
        assert scopes == {**dict.fromkeys(DEPLOYMENT_FIELDS, "deployment"),
                          **dict.fromkeys(CAMPAIGN_FIELDS, "campaign")}


class TestSameWiringFromBothFacades:
    @pytest.mark.parametrize("plan", FAULT_PLANS.values(), ids=FAULT_PLANS.keys())
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    @pytest.mark.parametrize("ingest_mode", ["batch", "streaming"])
    def test_equal_configs_build_equal_deployments(self, ingest_mode, transport, plan):
        knobs = dict(ingest_mode=ingest_mode, transport=transport, fault_plan=plan,
                     loss_rate=0.01, seed=5, ingest_shards=2, keep_raw_messages=False,
                     ingest_max_restarts=1, store_retry_attempts=7,
                     quarantine_capacity=9, max_datagram_size=900,
                     rollups=True, store_backend="memory")
        campaign = DeploymentCampaign(CampaignConfig(scale=0.0, **knobs),
                                      profiles=PROFILES)
        if transport == "socket" and plan is not None and plan.channel.active:
            with pytest.raises(CollectionError) as from_framework:
                SirenFramework(SirenConfig(**knobs))
            with pytest.raises(CollectionError) as from_campaign:
                campaign.prepare()
            assert str(from_campaign.value) == str(from_framework.value)
            return
        framework = SirenFramework(SirenConfig(**knobs))
        try:
            campaign.prepare()
            assert _wiring(campaign.deployment) == _wiring(framework.deployment)
            # The façades hold the built objects themselves, not copies.
            for facade in (framework, campaign):
                deployment = facade.deployment
                assert facade.store is deployment.store
                assert facade.channel is deployment.channel
                assert facade.ingest is deployment.ingest
                assert facade.receiver is deployment.receiver
                assert facade.tiered is deployment.tiered
                assert facade.collector is deployment.collector
            assert framework.sender is framework.deployment.sender
            assert campaign.collector.sender is campaign.deployment.sender
        finally:
            framework.close()
            campaign.close()

    @pytest.mark.parametrize("knob, value", [
        ("ingest_mode", "sideways"),
        ("transport", "carrier-pigeon"),
        ("store_backend", "parquet"),
    ])
    def test_invalid_values_raise_the_same_error_from_both(self, knob, value):
        with pytest.raises(CollectionError, match=knob) as from_framework:
            SirenFramework(SirenConfig(**{knob: value}))
        with pytest.raises(CollectionError, match=knob) as from_campaign:
            DeploymentCampaign(CampaignConfig(**{knob: value})).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)

    @pytest.mark.parametrize("knob, value", [
        ("ingest_shards", 0),
        ("loss_rate", -0.1),
        ("loss_rate", 1.5),
        ("hash_concurrency", 0),
        ("max_datagram_size", 10),
        ("max_datagram_size", MIN_DATAGRAM_SIZE - 1),
        ("ingest_max_restarts", -1),
        ("quarantine_capacity", -1),
        ("store_retry_attempts", -1),
    ])
    @pytest.mark.parametrize("ingest_mode, ingest_shards", [
        ("batch", 1), ("streaming", 1), ("streaming", 2)])
    def test_out_of_range_numbers_raise_before_anything_is_built(
            self, knob, value, ingest_mode, ingest_shards):
        """Regression: these were accepted, or failed late with a
        ``TransportError``/``IngestError``/``ReproError`` depending on the mode."""
        knobs = {"ingest_mode": ingest_mode, "ingest_shards": ingest_shards,
                 knob: value}
        before = len(_shard_workers())
        with pytest.raises(CollectionError, match=knob) as from_framework:
            SirenFramework(SirenConfig(**knobs))
        with pytest.raises(CollectionError, match=knob) as from_campaign:
            DeploymentCampaign(CampaignConfig(**knobs)).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)
        assert len(_shard_workers()) == before

    @pytest.mark.parametrize("knob, value", [
        ("loss_rate", 0.0), ("loss_rate", 1.0), ("hash_concurrency", 1),
        ("max_datagram_size", MIN_DATAGRAM_SIZE), ("ingest_max_restarts", 0),
        ("quarantine_capacity", 0), ("store_retry_attempts", 0),
    ])
    def test_range_boundaries_are_accepted(self, knob, value):
        SirenConfig(**{knob: value}).validate()

    def test_campaign_honours_max_datagram_size(self):
        """Regression: the campaign built its sender with the default budget
        whatever the config said."""
        results = {}
        for budget in (MAX_DATAGRAM_SIZE, 200):
            config = CampaignConfig(scale=0.0, seed=5, loss_rate=0.0,
                                    max_datagram_size=budget)
            results[budget] = DeploymentCampaign(config, profiles=PROFILES).run()
        small, default = results[200], results[MAX_DATAGRAM_SIZE]
        assert small.collector.sender.max_datagram_size == 200
        assert small.collector.sender.datagrams_sent > default.collector.sender.datagrams_sent
        assert small.collector.sender.messages_sent == default.collector.sender.messages_sent
        assert small.records == default.records
        assert small.incomplete_fraction == 0.0


class TestCloseReleasesShardWorkers:
    """Regression: ``close()`` left the shard worker processes running
    (framework), or did not exist at all (campaign)."""

    KNOBS = dict(ingest_mode="streaming", ingest_shards=2)

    def _assert_released(self, before: int) -> None:
        for child in _shard_workers():
            child.join(timeout=10)
        assert len(_shard_workers()) == before

    def test_framework_close(self):
        before = len(_shard_workers())
        framework = SirenFramework(SirenConfig(**self.KNOBS))
        try:
            assert len(_shard_workers()) == before + 2
        finally:
            framework.close()
        self._assert_released(before)
        framework.close()  # idempotent
        assert framework.snapshot() == []

    def test_prepared_but_never_run_campaign_close(self):
        before = len(_shard_workers())
        campaign = DeploymentCampaign(CampaignConfig(scale=0.0, **self.KNOBS),
                                      profiles=PROFILES)
        campaign.close()  # nothing prepared yet: a no-op
        campaign.prepare()
        try:
            assert len(_shard_workers()) == before + 2
        finally:
            campaign.close()
        self._assert_released(before)
