"""Count guards: the receive path pays per datagram only for what differs.

A 200-process stream (chunked contents, a lossy wire, so some groups miss
chunks) is replayed twice through ``ShardedIngest(shards=1)`` over a store
with a tiered store attached: once untouched, once under spies.  The spies
fail the test if the hot path regrows what ISSUE 19 took out of it -- an
enum call or a ``.value`` per datagram, a throw-away ``MessageGroup`` per
message, a ``reassemble_chunks`` call per unchunked group -- or what
ISSUE 20 took out of the tier hand-off -- a re-read of the batch just
written, a second ``process_row``, a backend transaction per shard -- and
the spied run must still produce the very same records, counters and
silver bytes.
"""

import enum
from dataclasses import astuple

import pytest

import repro.db.tiered as tiered_module
import repro.ingest.incremental as incremental
import repro.postprocess.consolidate as consolidate
import repro.transport.messages as messages
from repro.db.store import MessageStore
from repro.db.tiered import MemoryBackend, TieredStore
from repro.ingest import ShardedIngest
from repro.transport.messages import UDPMessage


def _replay(stream):
    store = MessageStore()
    tiered = TieredStore(MemoryBackend(), user_names={})
    store.attach_tiered(tiered)
    ingest = ShardedIngest(store, shards=1, persist_raw=False)
    for datagram in stream:
        ingest.handle_datagram(datagram)
    records = ingest.finalize()
    silver = [row for shard in range(tiered.shards)
              for row in tiered.backend.iter_rows(shard)]
    return sorted(map(astuple, records)), ingest.statistics(), silver


@pytest.fixture()
def stream(dual_ingest):
    """The datagrams of 200 processes that survived a 3 % lossy wire."""
    harness = dual_ingest(loss_rate=0.03, seed=19)
    datagrams: list[bytes] = []
    harness.channel.subscribe(datagrams.append)
    harness.workload.emit_campaign(200)
    return datagrams


def test_spied_replay_counts_and_output(stream, monkeypatch):
    expected = _replay(stream)
    assert expected[1]["decode_errors"] == 0 and expected[1]["records_built"] == 200

    def forbidden(value):
        raise AssertionError(f"enum call on the decode path: {value!r}")

    value_reads = []
    property_get = enum.property.__get__

    def counting_get(self, instance, ownerclass=None):
        value_reads.append(self.name)
        return property_get(self, instance, ownerclass)

    groups_built = []

    class CountedGroup(consolidate.MessageGroup):
        def __init__(self, *args, **kwargs):
            groups_built.append(self)
            super().__init__(*args, **kwargs)

    reassembled = []
    reassemble_chunks = consolidate.reassemble_chunks

    def counting_reassemble(chunks, expected_total):
        reassembled.append((dict(chunks), expected_total))
        return reassemble_chunks(chunks, expected_total)

    with monkeypatch.context() as patch:
        # decode's miss path: valid datagrams must never reach it
        patch.setattr(messages, "Layer", forbidden)
        patch.setattr(messages, "InfoType", forbidden)
        patch.setattr(enum.property, "__get__", counting_get)
        patch.setattr(incremental, "MessageGroup", CountedGroup)
        patch.setattr(consolidate, "reassemble_chunks", counting_reassemble)
        spied = _replay(stream)

    assert spied == expected

    # No `.name` / `.value` of any enum member, anywhere from the datagram to
    # the silver row.
    assert value_reads == []

    # One MessageGroup per distinct (process, layer, type) that was filed:
    # a message for an already-closed key (a late PROCEND) files nothing.
    decoded = [UDPMessage.decode(datagram) for datagram in stream]
    distinct = {(m.jobid, m.stepid, m.pid, m.path_hash, m.host, m.time,
                 m.layer, m.info_type) for m in decoded}
    assert len(decoded) > len(distinct) + 1000          # chunking is exercised
    assert len(groups_built) == len(distinct) - expected[1]["late_messages"]

    # reassemble_chunks only where there is something to reassemble or to
    # find missing; the unchunked majority never reaches it.
    assert reassembled
    assert all(total > 1 or 0 not in chunks for chunks, total in reassembled)
    assert any(len(chunks) < total for chunks, total in reassembled)   # loss seen
    unchunked = sum(1 for group in groups_built
                    if group.chunk_total == 1 and 0 in group.chunks)
    assert unchunked > len(reassembled)


def test_tier_hand_off_counts(stream, monkeypatch):
    """What a flushed record pays to cross into the tier, as counts: no
    re-read of a batch whose every row was new, one ``process_row`` inside
    the tier, one backend transaction per sync, one hash per distinct
    column value -- and the same silver as the untouched replay."""
    expected = _replay(stream)

    flushes, syncs, rereads, tier_rows, transactions, hashed = [], [], [], [], [], []
    insert_if_absent = MessageStore.insert_processes_if_absent
    sync_tiered = MessageStore.sync_tiered
    load_since = MessageStore.load_processes_since
    process_row, fnv1a_64 = tiered_module.process_row, tiered_module.fnv1a_64
    append_rows = MemoryBackend.append_rows

    def counting_insert(self, records):
        records = list(records)
        written = insert_if_absent(self, records)
        flushes.append((len(records), written))
        return written

    def counting_sync(self, delta=None):
        syncs.append(delta is not None)
        return sync_tiered(self, delta)

    def counting_load(self, rowid=0):
        rereads.append(rowid)
        return load_since(self, rowid)

    def counting_row(record):
        tier_rows.append(record)
        return process_row(record)

    def counting_append(self, rows, blobs):
        transactions.append(sum(map(len, rows.values())))
        return append_rows(self, rows, blobs)

    def counting_hash(data):
        hashed.append(data)
        return fnv1a_64(data)

    with monkeypatch.context() as patch:
        patch.setattr(MessageStore, "insert_processes_if_absent", counting_insert)
        patch.setattr(MessageStore, "sync_tiered", counting_sync)
        patch.setattr(MessageStore, "load_processes_since", counting_load)
        patch.setattr(tiered_module, "process_row", counting_row)
        patch.setattr(tiered_module, "fnv1a_64", counting_hash)
        patch.setattr(MemoryBackend, "append_rows", counting_append)
        spied = _replay(stream)

    assert spied == expected
    built = expected[1]["records_built"]
    assert sum(offered for offered, _written in flushes) == built

    # The attach-time sync reads the (empty) table; every row of every flush
    # of this stream is new, so each flush hands its own batch over.
    assert len(flushes) > 1
    assert all(written == offered for offered, written in flushes)
    assert syncs == [False] + [True] * len(flushes)
    assert rereads == [0]

    # One process_row per record inside the tier, and one backend
    # transaction per sync.
    assert len(tier_rows) == len(expected[2]) == built
    assert transactions == [offered for offered, _written in flushes]

    # Each distinct string column value of the stream is hashed exactly once.
    distinct = {value for record in tier_rows for value in process_row(record)
                if isinstance(value, str)}
    assert len(distinct) < tiered_module.MEMO_ENTRIES
    assert sorted(hashed) == sorted(value.encode("utf-8") for value in distinct)
