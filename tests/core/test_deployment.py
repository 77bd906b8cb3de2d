"""One config hierarchy, one builder: a campaign deploys a ``SirenFramework``."""

import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.analysis.live import LiveAnalysis
from repro.collector.fuzzy import ArtifactHasher
from repro.collector.hooks import SirenCollector
from repro.core import SirenConfig, SirenFramework
from repro.faults.plan import ChannelFaultProfile, FaultPlan, StoreFaultProfile
from repro.hashing.ssdeep import FuzzyHasher
from repro.ingest import IncrementalConsolidator
from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.transport.sender import UDPSender
from repro.util.errors import CollectionError
from repro.workload import CampaignConfig, CampaignResult, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from test_repo_invariants import parse_knob_table

#: One profile keeps ``prepare()`` (cluster + corpus) at ~0.1 s per case.
PROFILES = DEFAULT_PROFILES[:1]

DEPLOYMENT_FIELDS = {
    "policy", "loss_rate", "max_datagram_size", "store_path", "seed",
    "ingest_mode", "keep_raw_messages", "transport",
    "store_retry_attempts", "quarantine_capacity", "fault_plan", "rollups",
}
CAMPAIGN_FIELDS = {"scale", "quirk_fraction", "min_jobs_per_user",
                   "ensure_template_coverage"}

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
        "ingest": (ingest.persist_raw, ingest.quarantine_capacity),
        "quarantine_capacity": ingest.quarantine.capacity
                               if ingest.quarantine is not None else 0,
        "store_path": deployment.store.path,
        "store_retry": deployment.store.retry.attempts,
        "store_faults": deployment.store_fault_injector is not None,
        "tiered": deployment.tiered is not None,
        "max_datagram_size": deployment.sender.max_datagram_size,
        "drain": deployment.drain.__name__,
    }


class TestConfigHierarchy:
    def test_field_sets_are_pinned(self):
        """A new knob is a visible diff here (and in the docs table)."""
        siren = [f.name for f in dataclasses.fields(SirenConfig)]
        campaign = [f.name for f in dataclasses.fields(CampaignConfig)]
        assert len(siren) == len(set(siren)) == 12
        assert set(siren) == DEPLOYMENT_FIELDS
        assert campaign[:len(siren)] == siren  # inherited, in order
        assert set(campaign[len(siren):]) == CAMPAIGN_FIELDS
        assert len(campaign) == 16

    @pytest.mark.parametrize("config_cls, knob", [
        (CampaignConfig, "ingest_shards"), (CampaignConfig, "ingest_max_restarts"),
        (CampaignConfig, "campaign_workers"), (SirenConfig, "ingest_shards"),
        (SirenConfig, "ingest_max_restarts"), (CampaignConfig, "hash_concurrency"),
        (SirenConfig, "hash_concurrency"), (CampaignConfig, "store_backend"),
        (SirenConfig, "store_backend")])
    def test_removed_knobs_are_rejected(self, config_cls, knob):
        """Worker processes for ingest, for the job driver and for hashing
        were measured no faster than the serial path and removed with their
        knobs; the tiered store's backend went with the silver tier, leaving
        ``store_backend`` nothing to select."""
        with pytest.raises(TypeError, match=knob):
            config_cls(**{knob: 2})

    def test_batch_ingest_is_refused_with_the_docs_section(self):
        """The batch post-pass is gone; the field keeps one accepted value."""
        assert SirenConfig().ingest_mode == "streaming"
        with pytest.raises(CollectionError, match="ingest_mode") as refused:
            SirenConfig(ingest_mode="batch").validate()
        assert "'batch'" in str(refused.value)
        assert '"One ingest path"' in str(refused.value)
        with pytest.raises(CollectionError, match="One ingest path"):
            SirenFramework(SirenConfig(ingest_mode="batch"))

    def test_no_field_is_declared_twice(self):
        assert issubclass(CampaignConfig, SirenConfig)
        assert set(CampaignConfig.__annotations__) == CAMPAIGN_FIELDS
        assert set(SirenConfig.__annotations__) == DEPLOYMENT_FIELDS

    def test_docs_scope_column_says_where_each_field_is_declared(self):
        docs = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"
        scopes = parse_knob_table(docs.read_text(encoding="utf-8"))
        assert scopes == {**dict.fromkeys(DEPLOYMENT_FIELDS, "deployment"),
                          **dict.fromkeys(CAMPAIGN_FIELDS, "campaign")}


class TestOnePathEach:
    """One deployment class, one ingest path, one hash path."""

    def test_the_second_deployment_class_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.deployment")

    @pytest.mark.parametrize("owner, name", [
        (FuzzyHasher, "hash_many"), (FuzzyHasher, "close"),
        (FuzzyHasher, "hash_reference"), (FuzzyHasher, "_hash_at"),
        (ArtifactHasher, "close"), (SirenCollector, "close"),
        (LiveAnalysis, "observe"), (IncrementalConsolidator, "feed_many"),
        (IncrementalConsolidator, "close_all")],
        ids=lambda value: getattr(value, "__name__", value))
    def test_removed_methods_are_gone(self, owner, name):
        """The hash pool's batch entry point and its shutdown hooks, the
        per-byte reference hash (now the oracle in ``tests/oracles/ctph.py``),
        the batch-mode adapter of the live analysis, and the ingest object's
        old sink entry point and second end-of-stream call."""
        assert not hasattr(owner, name)

    @pytest.mark.parametrize("owner", [SirenFramework, IncrementalConsolidator, UDPSender,
                                       DeploymentCampaign], ids=lambda owner: owner.__name__)
    def test_the_stage_timer_is_gone(self, owner):
        """The pipeline benchmark's tracer is the one profiler: the stage
        timer these took is gone."""
        assert "timer" not in {field.name for field in dataclasses.fields(owner)}

    @pytest.mark.parametrize("module", ["repro.util.timing", "repro.devtools.lint.rollups",
                                        "repro.devtools"])
    def test_the_stage_timer_and_the_rollups_lint_modules_are_gone(self, module):
        """The whole lint package is gone too: its guarantees are
        ``tests/test_repo_invariants.py``."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_decode_and_consolidation_are_one_object(self):
        """No receiver module and no sink protocol: the ingest object
        decodes its own datagrams."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.transport.receiver")
        assert callable(IncrementalConsolidator.handle_datagram)

    def test_the_ingest_object_takes_five_knobs(self):
        """Counters and private state cannot be set through the constructor."""
        assert [f.name for f in dataclasses.fields(IncrementalConsolidator) if f.init] == [
            "store", "batch_size", "flush_batch_size", "idle_epochs", "persist_raw",
            "quarantine_capacity"]

    def test_no_stage_timing_seam_is_left(self):
        """The result carries no timings, and the collector's start hook is
        not split to sit inside a timed section."""
        assert "stage_timings" not in {field.name
                                       for field in dataclasses.fields(CampaignResult)}
        assert not hasattr(SirenCollector, "_collect_start")


class TestSameWiringFromBothFacades:
    @pytest.mark.parametrize("plan", FAULT_PLANS.values(), ids=FAULT_PLANS.keys())
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    @pytest.mark.parametrize("keep_raw", [False, True], ids=["records-only", "raw-kept"])
    def test_equal_configs_build_equal_deployments(self, keep_raw, transport, plan):
        knobs = dict(transport=transport, fault_plan=plan,
                     loss_rate=0.01, seed=5, keep_raw_messages=keep_raw,
                     store_retry_attempts=7,
                     quarantine_capacity=9, max_datagram_size=900,
                     rollups=True)
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
        ("quarantine_capacity", -1),
        ("store_retry_attempts", -1),
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
        ("loss_rate", 0.0), ("loss_rate", 1.0),
        ("max_datagram_size", MIN_DATAGRAM_SIZE),
        ("max_datagram_size", MAX_DATAGRAM_SIZE), ("quarantine_capacity", 0),
        ("store_retry_attempts", 0), ("ingest_mode", "streaming"),
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
        assert campaign.snapshot() == []
