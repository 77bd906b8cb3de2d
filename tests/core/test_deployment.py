"""One config hierarchy, one builder: a campaign deploys a ``SirenFramework``."""

from pathlib import Path

import pytest

from repro.core import SirenConfig, SirenFramework
from repro.faults.plan import ChannelFaultProfile, FaultPlan, StoreFaultProfile
from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from test_repo_invariants import parse_knob_table

#: One profile keeps ``prepare()`` (cluster + corpus) at ~0.1 s per case.
PROFILES = DEFAULT_PROFILES[:1]

DEPLOYMENT_FIELDS = {
    "policy", "loss_rate", "max_datagram_size", "store_path", "seed",
    "ingest_mode", "keep_raw_messages", "transport", "fault_plan", "rollups",
}
CAMPAIGN_FIELDS = {"scale", "min_jobs_per_user"}

FAULT_PLANS = {
    "no-faults": None,
    "channel-faults": FaultPlan(seed=3, channel=ChannelFaultProfile(drop_rate=0.1)),
    "store-faults": FaultPlan(seed=3, store=StoreFaultProfile(error_rate=0.01)),
}


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
        "ingest": ingest.persist_raw,
        "store_path": deployment.store.path,
        "store_retry": deployment.store.retry.attempts,
        "store_faults": deployment.store_fault_injector is not None,
        "tiered": deployment.tiered is not None,
        "max_datagram_size": deployment.sender.max_datagram_size,
        "drain": deployment.drain.__name__,
    }


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

    def test_docs_scope_column_says_where_each_field_is_declared(self):
        docs = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"
        scopes = parse_knob_table(docs.read_text(encoding="utf-8"))
        assert scopes == {**dict.fromkeys(DEPLOYMENT_FIELDS, "deployment"),
                          **dict.fromkeys(CAMPAIGN_FIELDS, "campaign")}


class TestSameWiringFromBothFacades:
    @pytest.mark.parametrize("plan", FAULT_PLANS.values(), ids=FAULT_PLANS.keys())
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    @pytest.mark.parametrize("keep_raw", [False, True], ids=["records-only", "raw-kept"])
    def test_equal_configs_build_equal_deployments(self, keep_raw, transport, plan):
        knobs = dict(transport=transport, fault_plan=plan,
                     loss_rate=0.01, seed=5, keep_raw_messages=keep_raw,
                     max_datagram_size=900, rollups=True)
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
            deployment = campaign.deployment
            assert type(deployment) is SirenFramework
            assert _wiring(deployment) == _wiring(framework)
            # The campaign holds the built objects themselves, not copies.
            assert campaign.store is deployment.store
            assert campaign.channel is deployment.channel
            assert campaign.ingest is deployment.ingest
            assert campaign.tiered is deployment.tiered
            assert campaign.collector is deployment.collector
            assert campaign.collector.sender is deployment.sender
        finally:
            framework.close()
            campaign.close()

    @pytest.mark.parametrize("knob, value", [
        ("ingest_mode", "sideways"),
        ("ingest_mode", "batch"),
        ("transport", "carrier-pigeon"),
    ])
    def test_invalid_values_raise_the_same_error_from_both(self, knob, value):
        with pytest.raises(CollectionError, match=knob) as from_framework:
            SirenFramework(SirenConfig(**{knob: value}))
        with pytest.raises(CollectionError, match=knob) as from_campaign:
            DeploymentCampaign(CampaignConfig(**{knob: value})).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)

    @pytest.mark.parametrize("knob, value", [
        ("loss_rate", -0.1),
        ("loss_rate", 1.5),
        ("loss_rate", float("nan")),
        ("max_datagram_size", 10),
        ("max_datagram_size", MIN_DATAGRAM_SIZE - 1),
    ])
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    def test_out_of_range_numbers_raise_before_anything_is_built(
            self, knob, value, transport):
        """Regression: these were accepted, or failed late with a
        ``TransportError``/``IngestError``/``ReproError`` depending on the mode."""
        knobs = {"transport": transport, knob: value}
        with pytest.raises(CollectionError, match=knob) as from_framework:
            SirenFramework(SirenConfig(**knobs))
        with pytest.raises(CollectionError, match=knob) as from_campaign:
            DeploymentCampaign(CampaignConfig(**knobs)).prepare()
        assert str(from_campaign.value) == str(from_framework.value)
        assert repr(value) in str(from_framework.value)

    @pytest.mark.parametrize("knob, value", [
        ("scale", float("nan")), ("scale", float("inf")), ("scale", -0.5),
        ("scale", float("-inf")), ("min_jobs_per_user", -1),
    ])
    def test_out_of_range_campaign_numbers_raise_before_the_corpus_is_built(
            self, knob, value):
        """Regression: ``nan`` failed only after the corpus was built, with a
        ``ValueError``, and a negative ``scale`` ran the minimum of jobs."""
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
