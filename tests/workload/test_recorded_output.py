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
beside -- except the record lists of lossy runs, re-recorded when the
``incomplete`` flag began to expect every section Table 1 lists: they
differ from the earlier ones only in records that lost a ``_H`` section
now being flagged (and, under reorder, in late ``OBJECTS_H`` sections now
arriving before their record closes).
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.core import AnalysisPipeline
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles.conservation import preset_plans, replay
from oracles.consolidate import records_from_messages
from oracles.search import reference_identify

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
    (0.01, 17): ("bb75af62e6e53ef5b3531ac1175f4885671fcc2f7ffbe046eca908b8ca4ab37a",
                 "83c57b8a1c3a5130f27c6aeeaf1350a143b15af78834507fb42769a064b23072",
                 "b1e4901c35480854dc11ed20f163d14a22eccfa72cf20b2bb64ef9f4b8545568"),
    (0.01, 99): ("38e333cf4eec797d812abbd71ace0a65dcdb5139e71e4eb334fd1fd7f0c9a495",
                 "2967f331e685f370d4909fe579f8db577d25a8b45cee91aac844b52f488e219b",
                 "49a16b59fcd7c484828a12f859b96b95376faebfbd9865ff1c51e187712a71aa"),
}

_TABLE7 = "Table 7 (baseline: /scratch/project_465000000/user_8/run_tmp/{})"

#: ``render_all()`` of a lossless run, by section title: the first 16 hex
#: digits of each section's SHA-256 ...
_LOSSLESS_SECTIONS = {
    "Table 2": "e89fad76093b6de7", "Table 3": "8c0090ee51129584",
    "Table 4": "fc05e8d19e3c9509", "Table 5": "c8bea3d581d79207",
    "Table 6": "07462f74faf3d620", "Table 8": "cdc15af425bd2b45",
    "Figure 2": "0737a78e87c18689", "Figure 3": "8876e739cf3300fb",
    "Figure 4 (compilers x labels)": "b7f403bb42c95cc0",
    "Figure 5 (libraries x labels)": "4ac4d619a13723af",
    _TABLE7.format("exp_042/a.out"): "0d54ce11d410ec52",
    _TABLE7.format("exp_043/model.x"): "8e083c9bd303e55a",
}

#: ... and per config: taken later than ``CAMPAIGN_PINS``, from the very
#: reports it pins whole, so that a change says which table moved.
SECTION_PINS = {
    (0.0, 17): _LOSSLESS_SECTIONS,
    (0.0, 99): _LOSSLESS_SECTIONS,
    (0.01, 17): {**_LOSSLESS_SECTIONS, "Table 2": "d5cd16b95c3dec01",
                 "Table 3": "c76d9d4048259fea", "Table 4": "16abc91ef573ed5c",
                 "Figure 2": "d46273da53e40ffe"},
    (0.01, 99): {**_LOSSLESS_SECTIONS, "Table 2": "f7aaeb0ae13c96fe",
                 "Table 3": "cd58f66313ab56df"},
}

#: every preset replays the same 2,635-datagram stream: the recorded
#: campaign's (``tests/conftest.py``)
_SENT = 2_635


def _counters(**nonzero: int) -> dict[str, int]:
    counters = dict.fromkeys(("corrupted", "dropped", "duplicated", "jitter_bursts",
                              "reordered", "truncated"), 0)
    return {**counters, "datagrams_sent": _SENT, **nonzero}


_LOSSLESS = "aa4761e10dbb97ff85972d7671ada0f63b0aee87e9fcaae7111b1ec5e771fda2"

#: preset -> (SHA-256 of the record list, fault_counters(), decode errors, records)
PRESET_PINS = {
    "baseline": (_LOSSLESS, _counters(), 0, 485),
    "loss-1pct": ("5450978d24a319dbb202afc454b613126bc8efbfd2fb6d7c5511181c811315e5",
                  _counters(dropped=27), 0, 485),
    "loss-5pct": ("11fd4ba17dc2f796f333bca13457822ba7bc58d68cb05c494ed8522ae269705c",
                  _counters(dropped=123), 0, 485),
    "loss-20pct": ("b81faa2ec40c1f7f7a2de3c62726fe3fa6027d5cde806b3fb06b6564a29664bd",
                   _counters(dropped=512), 0, 485),
    "dup-10pct": (_LOSSLESS, _counters(duplicated=268), 0, 485),
    "reorder-5pct": (_LOSSLESS, _counters(reordered=126), 0, 485),
    "corrupt-5pct": ("3e085c950dfe236f5dbe126d6d2b14a1934f3a49def99b42cd53bdbaa4b0e380",
                     _counters(corrupted=122), 65, 520),
    "truncate-5pct": ("e14d6c13870aa7ff2516368bab9cd3a7ad64877d2bea57a7bfdfbfbccb8cc2d7",
                      _counters(truncated=125), 73, 485),
    "jitter-10pct": (_LOSSLESS, _counters(jitter_bursts=156), 0, 485),
    "mixed-hostile": ("532c9dccd4e235b32be0b14592be1451cdcd75dedf7f11e92efda24d6f143d2b",
                      _counters(dropped=127, duplicated=135, corrupted=47,
                                truncated=42), 51, 502),
}


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _record_list(records) -> list[tuple]:
    return [tuple(getattr(r, name) for name in r.__dataclass_fields__)
            for r in records]


def _section_digests(report: str) -> dict[str, str]:
    """``{title: the first 16 hex digits of its SHA-256}`` of each section of
    a ``render_all()`` report (sections are separated by a blank line)."""
    return {section.split("\n", 1)[0]: _sha(section)[:16]
            for section in report.split("\n\n")}


@functools.cache
def _campaign_digests(loss_rate: float, seed: int,
                      keep_raw_messages: bool) -> tuple[object, ...]:
    """The three pinned digests of one scale-0.0 campaign (run once per
    config), then the record-list digest of the post-pass oracle over the raw
    ``messages`` table (``None`` when raw messages were not kept), then the
    report's :func:`_section_digests`."""
    config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                            keep_raw_messages=keep_raw_messages, rollups=True)
    result = DeploymentCampaign(config=config, profiles=PROFILES).run()
    tiered = result.tiered
    gold = [tiered.user_activity(), tiered.system_executables(),
            tiered.shared_object_variants("bash"), tiered.python_interpreters()]
    report = AnalysisPipeline(result.records, result.user_names).render_all()
    return (_sha(_record_list(result.records)),
            _sha(report),
            _sha(gold),
            _sha(_record_list(records_from_messages(result.store)))
            if keep_raw_messages else None,
            _section_digests(report))


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
    def test_each_rendered_section(self, loss_rate, seed, keep_raw):
        """Beside the whole report's pin: a change says which table moved."""
        assert _campaign_digests(loss_rate, seed, keep_raw)[4] == \
            SECTION_PINS[loss_rate, seed]

    @_KEEP_RAW
    def test_gold_tables(self, loss_rate, seed, keep_raw):
        assert _campaign_digests(loss_rate, seed, keep_raw)[2] == \
            CAMPAIGN_PINS[loss_rate, seed][2]

    def test_post_pass_over_raw_messages(self, loss_rate, seed):
        """The retired batch mode's record list: the raw ``messages`` table,
        regrouped by the post-pass oracle, gives the pinned records."""
        assert _campaign_digests(loss_rate, seed, True)[3] == \
            CAMPAIGN_PINS[loss_rate, seed][0]


class TestRecordedPresetOutput:
    def test_every_preset_is_pinned(self):
        assert set(preset_plans()) == set(PRESET_PINS)

    @pytest.mark.parametrize("preset", list(PRESET_PINS))
    def test_preset_output_is_the_recorded_one(self, recorded_campaign, preset):
        run = replay(recorded_campaign.stream, preset_plans(seed=7)[preset])
        assert (_sha(_record_list(run.records)), run.channel.fault_counters(),
                run.ingest.decode_errors, len(run.records)) == PRESET_PINS[preset]

    @pytest.mark.parametrize("preset", list(PRESET_PINS))
    def test_preset_report_renders_with_the_all_pairs_table7(self, recorded_campaign,
                                                             preset):
        """A damaged stream may make the report less complete, never crash it:
        a digest a truncated datagram cut short scores 0, as comparing it would."""
        records = replay(recorded_campaign.stream, preset_plans(seed=7)[preset]).records
        pipeline = AnalysisPipeline(records, recorded_campaign.result.user_names)
        assert "Table 7" in pipeline.render_all()
        assert pipeline.table7_similarity_search() == \
            reference_identify(pipeline.similarity_search().instances)
