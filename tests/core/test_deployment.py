"""One config hierarchy, one builder: a campaign deploys a ``SirenFramework``
through the network it builds, or through the channel it is handed."""

import dataclasses

import pytest

from repro.core import SirenConfig, SirenFramework
from repro.hpcsim.faults import (ChannelFaultProfile, FaultPlan, FaultyChannel,
                                 StoreFaultProfile)
from repro.transport.channel import SocketChannel
from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

#: One profile keeps ``prepare()`` (cluster + corpus) at ~0.1 s per case.
PROFILES = DEFAULT_PROFILES[:1]

CAMPAIGN_FIELDS = {"loss_rate", "seed", "fault_plan", "scale", "min_jobs_per_user"}

FAULT_PLANS = {
    "no-faults": None,
    "channel-faults": FaultPlan(seed=3, channel=ChannelFaultProfile(drop_rate=0.1)),
    "store-faults": FaultPlan(seed=3, store=StoreFaultProfile(error_rate=0.01)),
}

#: What the SIREN side of every deployment below is built from, besides
#: ``keep_raw_messages``, which each case sets both ways.
SIREN_KNOBS = dict(max_datagram_size=900, rollups=True)

KEEP_RAW = pytest.mark.parametrize("keep_raw", [False, True],
                                   ids=["records-only", "raw-kept"])


def _wiring(deployment) -> dict:
    """Everything the builder decided of SIREN's side, as plain values."""
    return {
        "ingest": deployment.ingest.persist_raw,
        "store_path": deployment.store.path,
        "tiered": deployment.tiered is not None,
        "max_datagram_size": deployment.sender.max_datagram_size,
        "drain": deployment.drain.__name__,
    }


def _stack(channel) -> list[str]:
    """The channels a datagram passes, outermost first."""
    stages = []
    while channel is not None:
        stages.append(f"drop={channel.plan.channel.drop_rate}"
                      if isinstance(channel, FaultyChannel) else type(channel).__name__)
        channel = getattr(channel, "inner", None)
    return stages


class TestConfigHierarchy:
    def test_batch_ingest_is_refused_with_the_docs_section(self):
        """The batch post-pass is gone; the field keeps one accepted value."""
        assert SirenConfig().ingest_mode == "streaming"
        with pytest.raises(CollectionError, match="ingest_mode") as refused:
            SirenConfig(ingest_mode="batch").validate()
        assert "'batch'" in str(refused.value)
        assert '"One ingest path"' in str(refused.value)
        with pytest.raises(CollectionError, match="One ingest path"):
            SirenFramework(SirenConfig(ingest_mode="batch"))

    def test_a_campaign_config_is_a_siren_config_plus_its_own_fields(self):
        siren = {field.name for field in dataclasses.fields(SirenConfig)}
        campaign = {field.name for field in dataclasses.fields(CampaignConfig)}
        assert siren < campaign
        assert campaign - siren == CAMPAIGN_FIELDS


class TestSameWiringFromBothFacades:
    @pytest.mark.parametrize("plan", FAULT_PLANS.values(), ids=FAULT_PLANS.keys())
    @pytest.mark.parametrize("loss_rate", [0.0, 0.01])
    @KEEP_RAW
    def test_the_campaign_builds_the_network_and_deploys_through_it(
            self, keep_raw, loss_rate, plan):
        """Loss stage over lossless delivery, the plan's channel faults over
        that; the plan's store faults on the deployment's store; and SIREN's
        side wired as a framework built from the same knobs wires it."""
        knobs = dict(SIREN_KNOBS, keep_raw_messages=keep_raw)
        config = CampaignConfig(scale=0.0, seed=5, loss_rate=loss_rate, fault_plan=plan,
                                **knobs)
        campaign = DeploymentCampaign(config, profiles=PROFILES)
        campaign.prepare()
        deployment = campaign.deployment
        channel_faults = plan is not None and plan.channel.active
        assert _stack(campaign.channel) == [
            *([f"drop={plan.channel.drop_rate}"] if channel_faults else []),
            *([f"drop={loss_rate}"] if loss_rate else []),
            "InMemoryChannel"]
        assert (campaign.lossy_channel is not None) == (loss_rate > 0)
        assert (campaign.faulty_channel is not None) == channel_faults
        store_faults = plan is not None and plan.store.active
        assert (campaign.store_fault_injector is not None) == store_faults
        assert campaign.store.fault_injector is campaign.store_fault_injector
        assert _wiring(deployment) == _wiring(SirenFramework(SirenConfig(**knobs)))
        # The campaign holds the built objects themselves, not copies.
        assert type(deployment) is SirenFramework
        assert campaign.channel is deployment.channel is deployment.sender.channel
        assert campaign.store is deployment.store
        assert campaign.ingest is deployment.ingest
        assert campaign.tiered is deployment.tiered
        assert campaign.collector is deployment.collector
        assert campaign.collector.sender is deployment.sender

    @pytest.mark.parametrize("plan", [FAULT_PLANS["no-faults"], FAULT_PLANS["store-faults"]],
                             ids=["no-faults", "store-faults"])
    @KEEP_RAW
    def test_a_campaign_sends_through_the_channel_it_is_handed(self, keep_raw, plan):
        """No network is built around a handed channel; the plan's store
        faults still go on the store; and SIREN's side is wired as a framework
        handed a channel of the same kind wires it."""
        knobs = dict(SIREN_KNOBS, keep_raw_messages=keep_raw)
        config = CampaignConfig(scale=0.0, seed=5, loss_rate=0.0, fault_plan=plan, **knobs)
        channel = SocketChannel()
        campaign = DeploymentCampaign(config, profiles=PROFILES, channel=channel)
        try:
            campaign.prepare()
            deployment = campaign.deployment
            assert campaign.channel is deployment.channel is channel
            assert deployment.sender.channel is channel
            assert deployment.drain == channel.drain
            assert campaign.lossy_channel is campaign.faulty_channel is None
            assert (campaign.store_fault_injector is not None) == (plan is not None)
            assert campaign.store.fault_injector is campaign.store_fault_injector
            with SocketChannel() as other:
                framework = SirenFramework(SirenConfig(**knobs), channel=other)
                assert _wiring(deployment) == _wiring(framework)
        finally:
            campaign.close()
        assert channel.closed

    @pytest.mark.parametrize("knob, value", [
        ("ingest_mode", "sideways"),
        ("ingest_mode", "batch"),
    ])
    def test_invalid_values_raise_the_same_error_from_both(self, knob, value):
        with pytest.raises(CollectionError, match=knob) as from_framework:
            SirenFramework(SirenConfig(**{knob: value}))
        with pytest.raises(CollectionError, match=knob) as from_campaign:
            DeploymentCampaign(CampaignConfig(**{knob: value})).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)

    @pytest.mark.parametrize("value", [10, MIN_DATAGRAM_SIZE - 1])
    def test_out_of_range_numbers_raise_before_anything_is_built(self, value):
        """Regression: these were accepted, or failed late with a
        ``TransportError``/``IngestError``/``ReproError`` depending on the mode."""
        with pytest.raises(CollectionError, match="max_datagram_size") as from_framework:
            SirenFramework(SirenConfig(max_datagram_size=value))
        with pytest.raises(CollectionError, match="max_datagram_size") as from_campaign:
            DeploymentCampaign(CampaignConfig(max_datagram_size=value)).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)

    @pytest.mark.parametrize("knob, value", [
        ("loss_rate", -0.1), ("loss_rate", 1.5), ("loss_rate", float("nan")),
        ("max_datagram_size", 10), ("max_datagram_size", MIN_DATAGRAM_SIZE - 1),
    ])
    def test_out_of_range_numbers_are_refused_as_such_on_a_handed_channel(
            self, knob, value):
        """The range check comes before the handed-channel refusal, so
        ``loss_rate=1.5`` is reported out of range rather than as a loss the
        link cannot simulate, and nothing is built."""
        with SocketChannel() as channel:
            campaign = DeploymentCampaign(CampaignConfig(**{knob: value}),
                                          profiles=PROFILES, channel=channel)
            with pytest.raises(CollectionError, match=f"{knob} must be") as refused:
                campaign.prepare()
        assert repr(value) in str(refused.value)
        assert not hasattr(campaign, "cluster")

    @pytest.mark.parametrize("knob, value", [
        ("loss_rate", -0.1), ("loss_rate", 1.5), ("loss_rate", float("nan")),
        ("scale", float("nan")), ("scale", float("inf")), ("scale", -0.5),
        ("scale", float("-inf")), ("min_jobs_per_user", -1),
    ])
    def test_out_of_range_campaign_numbers_raise_before_the_corpus_is_built(
            self, knob, value):
        """Regression: ``nan`` failed only after the corpus was built, with a
        ``ValueError``, a negative ``scale`` ran the minimum of jobs, and an
        out-of-range ``loss_rate`` failed late with a ``TransportError``."""
        campaign = DeploymentCampaign(CampaignConfig(**{knob: value}), profiles=PROFILES)
        with pytest.raises(CollectionError, match=knob) as refused:
            campaign.prepare()
        assert repr(value) in str(refused.value)
        assert not hasattr(campaign, "cluster")

    @pytest.mark.parametrize("knob, value", [
        ("loss_rate", 0.0), ("loss_rate", 1.0),
        ("max_datagram_size", MIN_DATAGRAM_SIZE),
        ("max_datagram_size", MAX_DATAGRAM_SIZE), ("ingest_mode", "streaming"),
        ("scale", 0.0), ("min_jobs_per_user", 0),
    ])
    def test_range_boundaries_are_accepted(self, knob, value):
        config_cls = CampaignConfig if knob in CAMPAIGN_FIELDS else SirenConfig
        config_cls(**{knob: value}).validate()

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


class TestClose:
    """``close()`` is idempotent and leaves ingested data readable; a
    campaign that was never prepared has nothing to close."""

    def test_framework_close(self):
        framework = SirenFramework()
        framework.close()
        framework.close()  # idempotent
        assert framework.snapshot() == []

    def test_prepared_but_never_run_campaign_close(self):
        campaign = DeploymentCampaign(CampaignConfig(scale=0.0), profiles=PROFILES)
        campaign.close()  # nothing prepared yet: a no-op
        campaign.prepare()
        campaign.close()
        campaign.close()  # idempotent
        assert campaign.deployment.snapshot() == []
