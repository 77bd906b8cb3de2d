"""Count guards: the receive path pays per datagram only for what differs.

A 200-process stream (chunked contents, a lossy wire, so some groups miss
chunks) is replayed twice through the ingest object
(``IncrementalConsolidator``) over a store
with gold rollups attached: once untouched, once under spies.  The spies
fail the test if the hot path regrows an enum call or a ``.value`` per
datagram, a throw-away ``MessageGroup`` per message, a
``reassemble_chunks`` call per unchunked group -- or, in the hand-off to
gold, a re-read of the batch just written, a second fold of a record or a
second split of one ``objects`` string; or if a live refresh loop reads a
``processes`` row back, builds a record twice or re-peeks an unchanged
stream -- and the spied run must still produce the very same records,
counters and tables.
"""

import enum
from dataclasses import astuple, fields
from itertools import count

import pytest

import repro.ingest.incremental as incremental
import repro.ingest.records as record_builder
import repro.transport.messages as messages
from repro.analysis.live import LiveAnalysis
from repro.analysis.stats import TableRollup
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.ingest import IncrementalConsolidator
from repro.transport.messages import UDPMessage


def _replay(stream):
    store = MessageStore()
    tiered = TieredStore(user_names={})
    store.attach_tiered(tiered)
    ingest = IncrementalConsolidator(store)
    for datagram in stream:
        ingest.handle_datagram(datagram)
    records = ingest.finalize()
    gold = (tiered.user_activity(), tiered.system_executables(top=None),
            tiered.shared_object_variants("bash"), tiered.python_interpreters())
    return sorted(map(astuple, records)), ingest.statistics(), tiered.statistics(), gold


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

    class CountedGroup(record_builder.MessageGroup):
        def __init__(self, *args, **kwargs):
            groups_built.append(self)
            super().__init__(*args, **kwargs)

    reassembled = []
    reassemble_chunks = record_builder.reassemble_chunks

    def counting_reassemble(chunks, expected_total):
        reassembled.append((dict(chunks), expected_total))
        return reassemble_chunks(chunks, expected_total)

    with monkeypatch.context() as patch:
        # decode's miss path: valid datagrams must never reach it
        patch.setattr(messages, "Layer", forbidden)
        patch.setattr(messages, "InfoType", forbidden)
        patch.setattr(enum.property, "__get__", counting_get)
        patch.setattr(incremental, "MessageGroup", CountedGroup)
        patch.setattr(record_builder, "reassemble_chunks", counting_reassemble)
        spied = _replay(stream)

    assert spied == expected

    # No `.name` / `.value` of any enum member, anywhere from the datagram to
    # the gold fold.
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
    """What a flushed record pays to cross into gold, as counts: nothing is
    read back after the attach, each record is folded exactly once, and no
    flush of this stream -- every row of it new -- needs a refold."""
    expected = _replay(stream)

    flushes, loads, folds = [], [], []
    insert_if_absent = MessageStore.insert_processes_if_absent
    load_processes = MessageStore.load_processes
    load_since = MessageStore.load_processes_since
    fold = TableRollup.fold

    def counting_insert(self, records):
        records = list(records)
        written = insert_if_absent(self, records)
        flushes.append((len(records), written))
        return written

    def counting_load(self):
        loads.append(("load_processes", len(flushes)))
        return load_processes(self)

    def counting_load_since(self, rowid=0):
        loads.append(("load_processes_since", len(flushes)))
        return load_since(self, rowid)

    def counting_fold(self, record):
        folds.append(record.key)
        return fold(self, record)

    with monkeypatch.context() as patch:
        patch.setattr(MessageStore, "insert_processes_if_absent", counting_insert)
        patch.setattr(MessageStore, "load_processes", counting_load)
        patch.setattr(MessageStore, "load_processes_since", counting_load_since)
        patch.setattr(TableRollup, "fold", counting_fold)
        spied = _replay(stream)

    assert spied == expected
    built = expected[1]["records_built"]
    assert sum(offered for offered, _written in flushes) == built
    assert len(flushes) > 1
    assert all(written == offered for offered, written in flushes)

    # The table is read twice: by the attach's refold before the first
    # flush, and by ``finalize`` for its return value after the last one.
    assert loads == [("load_processes", 0), ("load_processes", len(flushes))]
    assert sorted(folds) == sorted(record[:6] for record in expected[0])
    assert expected[2] == {"silver_rows": built, "rollup_rebuilds": 0,
                           "rollup_records_applied": built,
                           "rollup_syncs": len(flushes)}


def test_gold_splits_each_objects_string_once(stream, monkeypatch):
    """Table 4 groups by object list, but a stream repeats a few library sets
    over many records: gold splits each distinct ``objects`` string once."""
    expected = _replay(stream)
    splits = []
    object_list = ProcessRecord.object_list

    def counting_object_list(self):
        splits.append(self.objects)
        return object_list.fget(self)

    with monkeypatch.context() as patch:
        patch.setattr(ProcessRecord, "object_list", property(counting_object_list))
        spied = _replay(stream)

    assert spied == expected
    column = [field.name for field in fields(ProcessRecord)].index("objects")
    objects = [record[column] for record in expected[0]]
    assert len(set(objects)) < len(objects) // 2         # the memo has work to do
    assert sorted(splits) == sorted(set(splits))          # once per string ...
    assert set(splits) == set(objects)                    # ... for every one folded


def _refresh_loop(stream, *, slices: int = 25):
    """The stream in ``slices`` slices; after each, a dashboard reads the
    live Tables 2, 3 and 8.  Each view pulls first, so the second and third
    pulls of a slice find nothing new."""
    store = MessageStore()
    tiered = TieredStore(user_names={})
    store.attach_tiered(tiered)
    ingest = IncrementalConsolidator(store)
    live = LiveAnalysis().bind(ingest)
    tables = []
    step = -(-len(stream) // slices)
    for low in range(0, len(stream), step):
        for datagram in stream[low:low + step]:
            ingest.handle_datagram(datagram)
        tables.append((live.table2_user_activity(), live.table3_system_executables(None),
                       live.table8_python_interpreters()))
    records = ingest.finalize()
    live.sync()
    return sorted(map(astuple, records)), tables, live.statistics()["records_committed"]


@pytest.fixture()
def ordered_stream(dual_ingest):
    """200 processes, each ended right after its burst, on a clean wire:
    no late message resurrects a closed key, so every flush is new rows."""
    harness = dual_ingest(seed=19)
    datagrams: list[bytes] = []
    harness.channel.subscribe(datagrams.append)
    for pid in range(200):
        harness.workload.emit_process(pid, time=100 + pid // 10)
        harness.workload.maybe_end_one()
    return datagrams


def test_refresh_loop_reads_nothing_back(ordered_stream, monkeypatch):
    """Over a refresh loop, each finalized record is built once and handed
    to the live analysis as that very object: no ``processes`` row is
    selected after the first pull, and a pull with nothing new builds no
    record and refolds no overlay."""
    stream = ordered_stream
    expected = _refresh_loop(stream)
    assert expected[2] == 200

    builds, inserted, statements, overlays, pulls = [], [], [], [], []
    peeking = []
    build = incremental.build_process_record
    peek_open = incremental.IncrementalConsolidator._peek_open
    insert_if_absent = MessageStore.insert_processes_if_absent
    load_since = MessageStore.load_processes_since
    sync, commit = LiveAnalysis.sync, LiveAnalysis.commit
    table_init = TableRollup.__init__

    def counting_build(key, groups):
        builds.append((key, bool(peeking)))
        return build(key, groups)

    def counting_peek(self):
        peeking.append(True)
        try:
            return peek_open(self)
        finally:
            peeking.pop()

    def counting_insert(self, records):
        records = list(records)
        inserted.extend(records)
        return insert_if_absent(self, records)

    def counting_load_since(self, rowid=0):
        delta = load_since(self, rowid)
        if len(pulls) == 1:      # every statement after the first pull
            self.connection.set_trace_callback(statements.append)
        return delta

    def counting_sync(self):
        before = len(builds), len(overlays)
        pulls.append([])
        committed = sync(self)
        pulls[-1] = (before, (len(builds), len(overlays)), pulls[-1])
        return committed

    def counting_commit(self, new_records):
        pulls[-1].extend(new_records)
        return commit(self, new_records)

    def counting_table_init(self, *args, **kwargs):
        overlays.append(self)
        table_init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(incremental, "build_process_record", counting_build)
        patch.setattr(incremental.IncrementalConsolidator, "_peek_open", counting_peek)
        patch.setattr(MessageStore, "insert_processes_if_absent", counting_insert)
        patch.setattr(MessageStore, "load_processes_since", counting_load_since)
        patch.setattr(LiveAnalysis, "sync", counting_sync)
        patch.setattr(LiveAnalysis, "commit", counting_commit)
        patch.setattr(TableRollup, "__init__", counting_table_init)
        spied = _refresh_loop(stream)

    assert spied == expected
    # Each key is built once when it closes (a peek builds only open keys).
    closes = [key for key, peeked in builds if not peeked]
    assert len(closes) == len(set(closes)) == 200
    # The first pull (cursor 0) reads the table; every later one commits
    # exactly what was inserted since, as the very objects, in insert order.
    records = [record for _before, _after, batch in pulls for record in batch]
    first = len(pulls[0][2])
    assert len(records) == len(inserted) == 200 and first
    assert records[:first] == inserted[:first]
    assert all(mine is theirs for mine, theirs in zip(records[first:], inserted[first:]))
    # Nothing but the tail check reads ``processes`` after the first pull;
    # the table is read whole once more, by ``finalize``.
    reads = [sql for sql in statements if "FROM processes" in sql]
    rows = [sql for sql in reads if sql != "SELECT MAX(id) FROM processes"]
    assert len(reads) == len(pulls) and len(rows) == 1
    assert rows[0].startswith("SELECT jobid") and "WHERE" not in rows[0]
    # The second and third pulls of a slice find nothing new: they build no
    # record and refold no overlay.
    empty = pulls[1:-1:3] + pulls[2:-1:3]
    assert len(empty) == 50
    assert all(not batch and before == after for before, after, batch in empty)
