"""The conservation laws: where every datagram of a run went.

:func:`check_invariants` states them once, over counters a finished run
already keeps -- a :class:`~repro.workload.CampaignResult`, or a
:class:`Replay` of a recorded stream through one fault plan:

1. channel: sent + duplicated = delivered + dropped + still held.  A run is
   checked once flushed, when nothing is held
   (:meth:`~repro.hpcsim.faults.FaultyChannel.flush` returns what was).  Delivered
   is the inner channel's own count of what it handed its subscribers;
2. ingest: delivered = received + decode errors, and after ``finalize``
   consumed = received (a late duplicate is consumed and dropped);
3. quarantine: captures = decode errors, and captures - evicted = the ring;
4. flagging: under a plan that corrupts and truncates nothing, a record is
   flagged incomplete iff a content-bearing datagram of its process was lost.
   ``PROCEND`` bears no content (``repro.ingest.incremental``), so losing it
   flags nothing.  Which datagrams were lost only a replay knows: what was
   sent less what the inner channel delivered.

:func:`preset_plans` names the fault plans the record contract and the laws
are checked under (with :data:`STORM`), and :func:`replay` drives a recorded
stream through one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple
from unittest import mock

from repro.collector.records import InfoType
from repro.db.store import MessageStore, ProcessKey, ProcessRecord
from repro.hpcsim.faults import ChannelFaultProfile, FaultPlan, FaultyChannel
from repro.ingest import IncrementalConsolidator, incremental
from repro.transport.channel import Channel, InMemoryChannel
from repro.transport.messages import decode_row

#: The laws, as :func:`check_invariants` names them.
LAWS = CHANNEL, INGEST, QUARANTINE, FLAGGING = (
    "channel", "ingest", "quarantine", "flagged iff lost")


def preset_plans(seed: int = 7) -> dict[str, FaultPlan]:
    """The named fault presets, every one drawing its faults from ``seed``."""
    channel = lambda **kw: FaultPlan(seed=seed, channel=ChannelFaultProfile(**kw))
    return {
        "baseline": FaultPlan(seed=seed),
        "loss-1pct": channel(drop_rate=0.01),
        "loss-5pct": channel(drop_rate=0.05),
        "loss-20pct": channel(drop_rate=0.20),
        "dup-10pct": channel(duplicate_rate=0.10),
        "reorder-5pct": channel(reorder_rate=0.05, reorder_depth=3),
        "corrupt-5pct": channel(corrupt_rate=0.05),
        "truncate-5pct": channel(truncate_rate=0.05),
        "jitter-10pct": channel(jitter_rate=0.10, jitter_depth=8),
        "mixed-hostile": channel(drop_rate=0.05, duplicate_rate=0.05,
                                 corrupt_rate=0.02, truncate_rate=0.02),
    }


#: Half of all datagrams corrupted: the recorded stream's decode errors then
#: overflow the quarantine ring, so its evictions are counted for real.
STORM = FaultPlan(seed=7, channel=ChannelFaultProfile(corrupt_rate=0.5))


class Replay(NamedTuple):
    """A recorded stream replayed through one plan into a fresh ingest object."""

    records: list[ProcessRecord]     #: what ``finalize`` returned
    channel: FaultyChannel
    ingest: IncrementalConsolidator
    sent: Sequence[bytes]            #: every datagram sent, in order
    delivered: list[bytes]           #: every datagram the inner channel delivered
    handed_over: list[ProcessKey]    #: the keys the delta pulls handed over


def replay(stream: Sequence[bytes], plan: FaultPlan, store: MessageStore | None = None, *,
           sizes: tuple[int, int] = (16, 8), delta_every: int = 0) -> Replay:
    """``stream`` through ``plan``'s faulty channel into a fresh ingest object
    on ``store`` at ``(BATCH_SIZE, FLUSH_BATCH_SIZE)`` ``sizes``, pulling a
    delta every ``delta_every`` datagrams (never at 0) and at the end."""
    inner = InMemoryChannel()
    faulty = FaultyChannel(plan=plan, inner=inner)
    ingest = IncrementalConsolidator(MessageStore() if store is None else store)
    ingest.attach(inner)
    delivered: list[bytes] = []
    inner.subscribe(delivered.append)
    deltas = [ingest.snapshot_delta()]
    with mock.patch.multiple(incremental, BATCH_SIZE=sizes[0], FLUSH_BATCH_SIZE=sizes[1]):
        for index, datagram in enumerate(stream, 1):
            faulty.send(datagram)
            if delta_every and index % delta_every == 0:
                deltas.append(ingest.snapshot_delta(deltas[-1].cursor))
        faulty.flush()
        records = ingest.finalize()
    deltas.append(ingest.snapshot_delta(deltas[-1].cursor))
    return Replay(records, faulty, ingest, stream, delivered,
                  [record.key for delta in deltas for record in delta.new_records])


def check_channel(channel: Channel) -> list[str]:
    """Law 1 over a flushed channel: a line if it broke it."""
    if not isinstance(channel, FaultyChannel):
        return []           # a plain channel only delivers or drops
    sent, duplicated = channel.datagrams_sent, channel.duplicated
    delivered, dropped = channel.inner.datagrams_sent, channel.datagrams_dropped
    if sent + duplicated == delivered + dropped:
        return []
    return [f"{CHANNEL}: {sent} sent + {duplicated} duplicated != {delivered} delivered"
            f" + {dropped} dropped"]


def check_invariants(run) -> list[str]:
    """One line per law the finished ``run`` (a campaign result or a
    :class:`Replay`) breaks; the flagging law is checked on a replay alone."""
    found = check_channel(run.channel)
    inner = run.channel.inner if isinstance(run.channel, FaultyChannel) else run.channel
    delivered = inner.datagrams_sent - getattr(inner, "datagrams_dropped", 0)
    ingest, quarantine = run.ingest, run.ingest.quarantine
    if (delivered != ingest.messages_received + ingest.decode_errors
            or ingest.messages_consumed != ingest.messages_received):
        found.append(f"{INGEST}: {delivered} delivered, {ingest.messages_received} received,"
                     f" {ingest.decode_errors} undecodable, {ingest.messages_consumed} consumed")
    if (quarantine.quarantined - quarantine.evicted != len(quarantine)
            or quarantine.quarantined != ingest.decode_errors):
        found.append(f"{QUARANTINE}: {quarantine.quarantined} captured, {quarantine.evicted}"
                     f" evicted, {len(quarantine)} held, {ingest.decode_errors} undecodable")
    if isinstance(run, Replay):
        profile = run.channel.plan.channel
        if not (profile.corrupt_rate or profile.truncate_rate):
            found.extend(_flagging(run.records, Counter(run.sent) - Counter(run.delivered)))
    return found


def _flagging(records: list[ProcessRecord], lost: Counter[bytes]) -> list[str]:
    """Law 4: the records flagged incomplete are those that lost content."""
    losing = {row[:6] for row in map(decode_row, lost) if row[7] != InfoType.PROCEND}
    unflagged = sum(not record.incomplete and record.key in losing for record in records)
    groundless = sum(record.incomplete and record.key not in losing for record in records)
    if unflagged or groundless:
        return [f"{FLAGGING}: {unflagged} lost content unflagged,"
                f" {groundless} flagged with nothing lost"]
    return []
