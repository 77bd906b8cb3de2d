"""The record contract: every ingest output checked against the launch ledger.

Faults are applied by replaying the recorded campaign's stream through a
:class:`FaultyChannel` into a fresh consolidator (the campaign seed is not
drawn: at loss 0 the output does not depend on it).  The clauses a preset
breaks at plan seed 7 (:data:`BROKEN`) are strict xfails naming their cause;
a property covers every pair that holds, at any batch size, less the breaks
of one-datagram epochs (:data:`BROKEN_AT_BATCH_1`).  Each breaks at every plan
seed 0-19 but corrupt-5pct's losses flagged, which holds at seed 4.  Every
replay is held to the conservation laws (``oracles/conservation.py``) too, a
law a preset breaks standing in :data:`BROKEN` beside the clauses.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import store as store_module
from repro.db.store import MessageStore
from repro.hpcsim.faults import FaultPlan, FaultyChannel, StoreFaultInjector, StoreFaultProfile
from repro.ingest import DatagramQuarantine, IncrementalConsolidator, incremental

from oracles.conservation import (CHANNEL, FLAGGING, LAWS, QUARANTINE, STORM,
                                  check_invariants, preset_plans, replay)
from oracles.consolidate import raw_messages
from oracles.ledger import FLAGGED, KEYS, VALUES

pytestmark = pytest.mark.chaos

#: Presets that lose, alter and invent nothing.
LOSSLESS = ("baseline", "dup-10pct", "jitter-10pct")
_DAMAGE = "SIREN1 has no checksum: a damaged datagram that still decodes {} (ROADMAP item 4)"
_DAMAGED = {KEYS: _DAMAGE.format("lands under a phantom key"),
            VALUES: _DAMAGE.format("lands a wrong value"),
            FLAGGED: _DAMAGE.format("cuts a field to nothing: a PROCINFO field (uid, gid,"
                                    " ppid, executable, category) or a section's content")}
#: preset -> the clauses and laws it breaks at plan seed 7 -> why
BROKEN = {"truncate-5pct": {VALUES: _DAMAGED[VALUES], FLAGGED: _DAMAGED[FLAGGED]},
          "corrupt-5pct": _DAMAGED, "mixed-hostile": _DAMAGED}
#: ... and those it breaks only when every datagram is an epoch (``BATCH_SIZE`` 1)
BROKEN_AT_BATCH_1 = {"reorder-5pct": {FLAGGING: "reorder depth 3 is longer than a"
                                      " one-datagram epoch: content displaced past its"
                                      " PROCEND by more than the idle rule's grace arrives"
                                      " after the close and is dropped as late, so the"
                                      " record is flagged with nothing lost"}}
#: ``(BATCH_SIZE, FLUSH_BATCH_SIZE)`` pairs every replay mode is run at
BATCH_SIZES = [(1, 1), (4, 2), (16, 8), (64, 8), (500, 64)]


def _clauses(violations: list[str]) -> set[str]:
    return {violation.split(":")[0] for violation in violations}


def test_the_campaign_owes_what_it_ran(recorded_campaign):
    """The live output is exactly the owed records, every digest included."""
    result, ledger = recorded_campaign.result, recorded_campaign.ledger
    assert (ledger.launches, len(ledger.expected)) == (result.processes_run, 485) == (504, 485)
    assert ledger.hooked - len(ledger.expected) == result.collector.processes_skipped
    assert result.records == ledger.records()
    assert 0 < result.ingest.peak_open_processes < len(result.records)
    assert len(raw_messages(result.store)) == 0


@pytest.mark.parametrize("sizes", BATCH_SIZES, ids="batch{0[0]}-flush{0[1]}".format)
@pytest.mark.parametrize("preset", [*LOSSLESS, "store-faults"])
@mock.patch.object(store_module, "RETRY_ATTEMPTS", 6)
def test_lossless_replays_match_the_ledger_exactly(recorded_campaign, preset, sizes):
    plan = {**preset_plans(seed=7), "store-faults": FaultPlan(
        seed=7, store=StoreFaultProfile(error_rate=0.05, error_burst=2))}[preset]
    store = MessageStore()
    store._sleep = lambda _: None
    injector = StoreFaultInjector(plan).install(store) if plan.store.active else None
    run = replay(recorded_campaign.stream, plan, store, sizes=sizes)
    assert recorded_campaign.ledger.violations(run.records, lossless=True) == []
    assert check_invariants(run) == []
    assert run.records == recorded_campaign.ledger.records() == store.load_processes()
    assert injector is None or 0 < injector.transient_raised <= store.write_retries


@settings(max_examples=40, deadline=None)
@given(preset=st.sampled_from([name for name in preset_plans() if len(BROKEN.get(name, ())) < 3]),
       seed=st.integers(0, 2**16), extra_drop=st.just(0.0) | st.floats(0.0, 0.5),
       sizes=st.sampled_from(BATCH_SIZES), delta_every=st.integers(40, 3000))
def test_every_clause_that_holds_holds(recorded_campaign, preset, seed, extra_drop,
                                       sizes, delta_every):
    """Any plan seed, extra loss, batch sizes and delta cadence: the preset's
    holding clauses hold, and the deltas partition the final key set."""
    plan = preset_plans(seed=seed)[preset]
    plan = replace(plan, channel=replace(
        plan.channel, drop_rate=plan.channel.drop_rate + extra_drop))
    run = replay(recorded_campaign.stream, plan, sizes=sizes, delta_every=delta_every)
    lossless = preset in LOSSLESS and not extra_drop
    found = recorded_campaign.ledger.violations(run.records, lossless=lossless)
    found += check_invariants(run)
    broken = {**BROKEN, **(BROKEN_AT_BATCH_1 if sizes[0] == 1 else {})}
    assert not _clauses(found) - set(broken.get(preset, ())), found
    assert sorted(run.handed_over) == [record.key for record in run.records]


@pytest.fixture(scope="module")
def measured(recorded_campaign) -> dict[str, set[str]]:
    """preset -> the clauses and laws its replay at plan seed 7 breaks."""
    def broken(preset: str, run) -> set[str]:
        return _clauses(recorded_campaign.ledger.violations(
            run.records, lossless=preset in LOSSLESS) + check_invariants(run))
    return {preset: broken(preset, replay(recorded_campaign.stream, plan))
            for preset, plan in preset_plans(seed=7).items()}


@pytest.mark.parametrize("preset, clause", [pytest.param(preset, clause, marks=pytest.mark.xfail(
    clause in BROKEN.get(preset, {}), reason=BROKEN.get(preset, {}).get(clause, ""), strict=True))
    for preset in preset_plans() for clause in (KEYS, VALUES, FLAGGED, *LAWS)])
def test_the_measured_table(measured, preset, clause):
    assert clause not in measured[preset]


def _rebuilt(change):
    """Ingest with every record it builds passed through ``change``."""
    build = incremental.build_process_record

    def mutant(key, rows, values):
        record, whole = build(key, rows, values)
        return change(record), whole
    return mock.patch.object(incremental, "build_process_record", mutant)


def _one_record_twice():
    finalize = IncrementalConsolidator.finalize
    return mock.patch.object(IncrementalConsolidator, "finalize",
                             lambda self: (records := finalize(self)) + records[:1])


def _uncounted(cls, method: str, counter: str):
    """``cls.method`` leaving its instance's ``counter`` as it found it."""
    original = getattr(cls, method)

    def mutant(self, *args):
        before = getattr(self, counter)
        result = original(self, *args)
        setattr(self, counter, before)
        return result
    return mock.patch.object(cls, method, mutant)


@pytest.mark.parametrize("mutation, preset, clause", [
    (lambda: _rebuilt(lambda record: replace(record, modules="")
                      if record.category == "user" else record), "baseline", FLAGGED),
    (lambda: _rebuilt(lambda record: replace(record, pid=record.pid + 1)), "baseline", KEYS),
    (lambda: _rebuilt(lambda record: replace(record, file_h=record.file_h[::-1])),
     "baseline", VALUES),
    (_one_record_twice, "baseline", KEYS),
    (lambda: _uncounted(FaultyChannel, "send", "duplicated"), "dup-10pct", CHANNEL),
    (lambda: _uncounted(DatagramQuarantine, "capture", "evicted"), "corrupt-storm", QUARANTINE),
    (lambda: _rebuilt(lambda record: replace(record, incomplete=False)), "loss-5pct", FLAGGING)],
    ids=["user-modules-blanked", "pid-plus-one", "file-hash-reversed", "one-record-twice",
         "duplicate-uncounted", "eviction-uncounted", "nothing-flagged"])
def test_the_checker_names_the_broken_clause(recorded_campaign, mutation, preset, clause):
    with mutation():
        run = replay(recorded_campaign.stream, {**preset_plans(), "corrupt-storm": STORM}[preset])
    found = recorded_campaign.ledger.violations(run.records, lossless=True) + check_invariants(run)
    assert clause in _clauses(found)
