"""Transport degradation against the completeness of the records.

The paper puts the jobs with fields missing through UDP loss at about
0.02 % (section 3.1), and argues that hashing each collected list keeps a
partly lost record usable.  Every test replays the recorded campaign's
stream through one fault plan (``oracles/conservation.py``) and checks the
conservation laws on the way; the record contract
(``tests/integration/test_record_contract.py``) checks the records against
the launch ledger under every preset.
"""

import pytest

from repro.hpcsim.faults import ChannelFaultProfile, FaultPlan
from repro.ingest.incremental import QUARANTINE_CAPACITY

from oracles.conservation import STORM, check_invariants, preset_plans, replay

pytestmark = pytest.mark.chaos


def _incomplete_fraction(run) -> float:
    return sum(record.incomplete for record in run.records) / len(run.records)


@pytest.mark.parametrize("drop_rate, low, high", [
    (0.0, 0.0, 0.0), (0.0002, 0.0, 0.02), (0.05, 0.05, 0.5)])
def test_the_loss_sweep(recorded_campaign, drop_rate, low, high):
    """No record is flagged without loss, under 2 % are at the paper's
    operating point, and a clear share at 5 % loss."""
    run = replay(recorded_campaign.stream,
                 FaultPlan(seed=7, channel=ChannelFaultProfile(drop_rate=drop_rate)))
    assert check_invariants(run) == []
    assert low <= _incomplete_fraction(run) <= high


def test_object_list_hashes_survive_loss(recorded_campaign):
    """At 5 % loss every object-list digest of the lossless run is still seen."""
    def digests(preset: str) -> set[str]:
        run = replay(recorded_campaign.stream, preset_plans()[preset])
        return {record.objects_h for record in run.records if record.objects_h}

    assert digests("loss-5pct") == digests("baseline") != set()


def test_incompleteness_rises_with_loss(recorded_campaign):
    """Loss costs completeness, not records: a lossy process still closes
    into a record, flagged, so the record count never rises with loss and
    the incomplete share rises at every step."""
    runs = [replay(recorded_campaign.stream, preset_plans()[preset])
            for preset in ("baseline", "loss-1pct", "loss-5pct", "loss-20pct")]
    fractions = [_incomplete_fraction(run) for run in runs]
    assert fractions[0] == 0.0
    assert all(less < more for less, more in zip(fractions, fractions[1:]))
    counts = [len(run.records) for run in runs]
    assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("preset", ["corrupt-5pct", "truncate-5pct", "mixed-hostile",
                                    "corrupt-storm"])
def test_damage_is_counted_and_quarantined(recorded_campaign, preset):
    """Damaged datagrams are decode errors, and the ring keeps the newest of
    them: every one of a light fault's, the last 256 of the storm's."""
    run = replay(recorded_campaign.stream, {**preset_plans(), "corrupt-storm": STORM}[preset])
    ingest = run.ingest
    assert check_invariants(run) == []
    assert ingest.decode_errors > 0
    assert len(ingest.quarantine) == min(ingest.decode_errors, QUARANTINE_CAPACITY)
    assert (ingest.quarantine.evicted > 0) == (preset == "corrupt-storm")
