"""Campaign output is pinned to digests recorded before the parallel modes went.

Ingest used to run optionally in worker processes and the job driver in
several; both were removed (``docs/architecture.md``, "Parallelism: measured
and removed"), and so was the batch post-pass ingest mode, which produced
the same digests.  The serial driver and the one in-process ingest front
must still produce, byte for byte, what the code produced before: the record
list, the rendered analysis, the gold tables, and -- under every degradation
preset -- the same surviving records and fault counters.  Every digest below
was recorded with the parallel modes and the batch mode still in the tree,
and with the silver record shards that the gold tables were once folded
beside.
"""

from __future__ import annotations

import functools
import hashlib
from unittest import mock

import pytest

from repro.core import AnalysisPipeline
from repro.db.store import MessageStore
from repro.faults import FaultyChannel, preset_plans
from repro.ingest import IncrementalConsolidator, incremental
from repro.transport.channel import InMemoryChannel
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles.consolidate import records_from_messages

PROFILES = DEFAULT_PROFILES[:4]

#: (loss_rate, seed) -> SHA-256 of (record list, ``render_all()``, gold
#: tables).
CAMPAIGN_PINS = {
    (0.0, 17): ("aa4761e10dbb97ff85972d7671ada0f63b0aee87e9fcaae7111b1ec5e771fda2",
                "d3cf18f10b4921fada1bbbfbb96d063c38cc744974f82d727a8d98c6c5a22942",
                "57a3f2348742fa02397f5e0e225ecb016c19014931fc899ffd438d676bdbb726"),
    (0.0, 99): ("aa4761e10dbb97ff85972d7671ada0f63b0aee87e9fcaae7111b1ec5e771fda2",
                "d3cf18f10b4921fada1bbbfbb96d063c38cc744974f82d727a8d98c6c5a22942",
                "57a3f2348742fa02397f5e0e225ecb016c19014931fc899ffd438d676bdbb726"),
    (0.01, 17): ("b2705c22283bfee7384e65dfa8660a5eb977a15e81989a3048c720c1a0bf8bcc",
                 "83c57b8a1c3a5130f27c6aeeaf1350a143b15af78834507fb42769a064b23072",
                 "b1e4901c35480854dc11ed20f163d14a22eccfa72cf20b2bb64ef9f4b8545568"),
    (0.01, 99): ("b6d5b0bdbbdf2567856e3a4bea2a7323676402c3f33f6dae5fbd89a935092c22",
                 "2967f331e685f370d4909fe579f8db577d25a8b45cee91aac844b52f488e219b",
                 "49a16b59fcd7c484828a12f859b96b95376faebfbd9865ff1c51e187712a71aa"),
}

#: every preset replays the same 2,635-datagram stream
_SENT = 2_635


def _counters(**nonzero: int) -> dict[str, int]:
    counters = dict.fromkeys(("corrupted", "dropped", "duplicated", "jitter_bursts",
                              "reordered", "truncated"), 0)
    return {**counters, "datagrams_sent": _SENT, **nonzero}


_LOSSLESS = "aa4761e10dbb97ff85972d7671ada0f63b0aee87e9fcaae7111b1ec5e771fda2"

#: preset -> (SHA-256 of the record list, fault_counters(), decode errors, records)
PRESET_PINS = {
    "baseline": (_LOSSLESS, _counters(), 0, 485),
    "loss-1pct": ("057df57facf0c6e7187748e53ec3bcbb177b4295f2d8fb518fb73c1141d849b2",
                  _counters(dropped=27), 0, 485),
    "loss-5pct": ("95a2b1e94a4b2b6e24b5218799142fe98fc2c3462b3acb25cfa50d9fc8601833",
                  _counters(dropped=123), 0, 485),
    "loss-20pct": ("e4974d5dd853f97dba06bffdbac80a64361d9b963f90080e53b935d4390ed2b9",
                   _counters(dropped=512), 0, 485),
    "dup-10pct": (_LOSSLESS, _counters(duplicated=268), 0, 485),
    "reorder-5pct": ("fbc47420e743fbfc301ab0d2e414b04a6cf81dd408de0d6ace852472ca686153",
                     _counters(reordered=126), 0, 485),
    "corrupt-5pct": ("c31aaf55d2d9b500cfe07e4fef294446779cafdf813046feb39e7e01b5dbd104",
                     _counters(corrupted=122), 65, 520),
    "truncate-5pct": ("56164092e790cd61fd798e2671605ae6b75cda802d972ae243cecd58f7e49d88",
                      _counters(truncated=125), 73, 485),
    "jitter-10pct": (_LOSSLESS, _counters(jitter_bursts=156), 0, 485),
    "mixed-hostile": ("6848beca2df47c8b53ac88a04af8514661748203c5af480b8fb313e96613b6a4",
                      _counters(dropped=127, duplicated=135, corrupted=47,
                                truncated=42), 51, 502),
}


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _record_list(records) -> list[tuple]:
    return [tuple(getattr(r, name) for name in r.__dataclass_fields__)
            for r in records]


@functools.cache
def _campaign_digests(loss_rate: float, seed: int,
                      keep_raw_messages: bool) -> tuple[str | None, ...]:
    """The three pinned digests of one scale-0.0 campaign (run once per
    config), then the record-list digest of the post-pass oracle over the raw
    ``messages`` table (``None`` when raw messages were not kept)."""
    config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                            keep_raw_messages=keep_raw_messages, rollups=True)
    result = DeploymentCampaign(config=config, profiles=PROFILES).run()
    tiered = result.tiered
    gold = [tiered.user_activity(), tiered.system_executables(),
            tiered.shared_object_variants("bash"), tiered.python_interpreters()]
    return (_sha(_record_list(result.records)),
            _sha(AnalysisPipeline(result.records, result.user_names).render_all()),
            _sha(gold),
            _sha(_record_list(records_from_messages(result.store)))
            if keep_raw_messages else None)


@pytest.mark.parametrize("loss_rate, seed", list(CAMPAIGN_PINS))
class TestRecordedCampaignOutput:
    """Persisting raw messages beside live consolidation changes no output."""

    _KEEP_RAW = pytest.mark.parametrize("keep_raw", [False, True],
                                        ids=["records-only", "raw-kept"])

    @_KEEP_RAW
    def test_record_list(self, loss_rate, seed, keep_raw):
        assert _campaign_digests(loss_rate, seed, keep_raw)[0] == \
            CAMPAIGN_PINS[loss_rate, seed][0]

    @_KEEP_RAW
    def test_rendered_analysis(self, loss_rate, seed, keep_raw):
        assert _campaign_digests(loss_rate, seed, keep_raw)[1] == \
            CAMPAIGN_PINS[loss_rate, seed][1]

    @_KEEP_RAW
    def test_gold_tables(self, loss_rate, seed, keep_raw):
        assert _campaign_digests(loss_rate, seed, keep_raw)[2] == \
            CAMPAIGN_PINS[loss_rate, seed][2]

    def test_post_pass_over_raw_messages(self, loss_rate, seed):
        """The retired batch mode's record list: the raw ``messages`` table,
        regrouped by the post-pass oracle, gives the pinned records."""
        assert _campaign_digests(loss_rate, seed, True)[3] == \
            CAMPAIGN_PINS[loss_rate, seed][0]


@pytest.fixture(scope="module")
def lossless_stream() -> list[bytes]:
    """The datagrams of the lossless seed-7 scale-0.0 campaign, in send order."""
    config = CampaignConfig(scale=0.0, seed=7, loss_rate=0.0, keep_raw_messages=False)
    campaign = DeploymentCampaign(config=config, profiles=PROFILES)
    campaign.prepare()
    stream: list[bytes] = []
    campaign.channel.subscribe(stream.append)
    campaign.run()
    return stream


class TestRecordedPresetOutput:
    def test_every_preset_is_pinned(self):
        assert set(preset_plans()) == set(PRESET_PINS)

    @pytest.mark.parametrize("preset", list(PRESET_PINS))
    @mock.patch.multiple(incremental, BATCH_SIZE=16, FLUSH_BATCH_SIZE=8)
    def test_preset_output_is_the_recorded_one(self, lossless_stream, preset):
        inner = InMemoryChannel()
        faulty = FaultyChannel(plan=preset_plans(seed=7)[preset], inner=inner)
        front = IncrementalConsolidator(MessageStore())
        front.attach(inner)
        for datagram in lossless_stream:
            faulty.send(datagram)
        faulty.flush()
        records = front.finalize()
        assert (_sha(_record_list(records)), faulty.fault_counters(),
                front.decode_errors, len(records)) == PRESET_PINS[preset]
