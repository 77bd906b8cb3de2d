"""Count guards: the receive path pays per datagram only for what differs.

A 200-process stream (chunked contents, a lossy wire, so some processes
miss chunks) is replayed twice through the ingest object
(``IncrementalConsolidator``) over a store
with gold rollups attached: once untouched, once under spies.  The spies
fail the test if the hot path decodes a datagram other than once through
``decode_row``, or regrows a ``UDPMessage``, an enum call or a
``.value`` per datagram, a chunk accumulator (a ``reassemble_chunks`` call)
for an unchunked message, a record build per process beyond its close and
each ``PROCEND`` check that found content missing, a second PROCINFO parse
per record -- or, in the hand-off to gold, a re-read of the batch just written,
a second fold of a record or a second split of one ``objects`` string; or
if ``finalize`` reads back what it wrote, or a live refresh loop reads a
``processes`` row back, builds a record twice or re-peeks an unchanged
stream -- and the spied run must still produce the very same records,
counters and tables.
"""

import enum
from collections import Counter
from dataclasses import astuple, fields
from itertools import count

import pytest

import repro.ingest.incremental as incremental
import repro.ingest.records as record_builder
import repro.transport.messages as messages
from repro.analysis.live import LiveAnalysis
from repro.analysis.stats import TableRollup
from repro.collector.records import InfoType
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.ingest import IncrementalConsolidator
from repro.transport.messages import UDPMessage


def _on_disk(patch, directory, statements):
    """Open every ``MessageStore`` as a fresh database file under
    ``directory``, its statements traced into ``statements``."""
    store_init, files = MessageStore.__init__, count()

    def on_disk_init(self, _path=":memory:"):
        store_init(self, str(directory / f"siren{next(files)}.db"))
        self.connection.set_trace_callback(statements.append)

    patch.setattr(MessageStore, "__init__", on_disk_init)


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
def stream(synthetic_stream):
    """The datagrams of 200 processes that survived a 3 % lossy wire."""
    workload, datagrams = synthetic_stream(loss_rate=0.03, seed=19)
    workload.emit_campaign(200)
    return datagrams


def test_spied_replay_counts_and_output(stream, monkeypatch):
    expected = _replay(stream)
    assert expected[1]["decode_errors"] == 0 and expected[1]["records_built"] == 200

    def forbidden(value):
        raise AssertionError(f"enum call on the decode path: {value!r}")

    messages_built = []
    message_init = UDPMessage.__init__

    def counting_init(self, *args, **kwargs):
        messages_built.append(self)
        message_init(self, *args, **kwargs)

    value_reads = []
    property_get = enum.property.__get__

    def counting_get(self, instance, ownerclass=None):
        value_reads.append(self.name)
        return property_get(self, instance, ownerclass)

    builds = []
    build = incremental.build_process_record

    def counting_build(key, rows, values):
        builds.append(list(rows))
        return build(key, rows, values)

    decoded = []
    decode_row = incremental.decode_row

    def counting_decode(datagram):
        decoded.append(datagram)
        return decode_row(datagram)

    reassembled = []
    reassemble_chunks = record_builder.reassemble_chunks

    def counting_reassemble(chunks, expected_total):
        reassembled.append((dict(chunks), expected_total))
        return reassemble_chunks(chunks, expected_total)

    with monkeypatch.context() as patch:
        # ``UDPMessage`` and the enum calls: valid datagrams must never reach them
        patch.setattr(UDPMessage, "__init__", counting_init)
        patch.setattr(messages, "Layer", forbidden)
        patch.setattr(messages, "InfoType", forbidden)
        patch.setattr(enum.property, "__get__", counting_get)
        patch.setattr(incremental, "decode_row", counting_decode)
        patch.setattr(incremental, "build_process_record", counting_build)
        patch.setattr(record_builder, "reassemble_chunks", counting_reassemble)
        spied = _replay(stream)

    assert spied == expected

    # A datagram is decoded once, by the format's one decoder, straight into
    # a raw row: no message object, and no `.name` / `.value` of any enum
    # member, anywhere from the datagram to the gold fold.
    assert decoded == stream
    assert messages_built == []
    assert value_reads == []

    # A build accumulates chunks -- and reassembles them, once -- only for a
    # pair that is really chunked or repeated in the rows it walks; the
    # unchunked majority goes straight into its slot.
    def accumulated(rows):
        pairs = Counter(row[6:8] for row in rows)
        return {row[6:8] for row in rows
                if row[8] != 0 or row[9] > 1 or pairs[row[6:8]] > 1}

    walked = [pair for rows in builds for pair in {row[6:8] for row in rows}]
    parts = sum(len(accumulated(rows)) for rows in builds)
    assert len(stream) > len(walked) + 1000         # chunking is exercised
    assert len(reassembled) == parts
    assert any(len(chunks) < total for chunks, total in reassembled)   # loss seen
    assert len(walked) > 2 * parts

    # A process is built when it closes, plus once for each PROCEND check
    # that found content missing (the idle close then builds it again).
    # Every late message of this stream is the PROCEND of a process the idle
    # rule closed first, so the other PROCENDs are the checks.  Content
    # missing includes a lost ``_H`` section: Table 1 lists every one.
    stats = expected[1]
    procend_keys = {(m.jobid, m.stepid, m.pid, m.path_hash, m.host, m.time)
                    for m in map(UDPMessage.decode, stream) if m.info_type is InfoType.PROCEND}
    checks = len(procend_keys) - stats["late_messages"]
    missing = checks - stats["early_finalized"]
    assert (checks, missing) == (106, 38)
    assert len(builds) == stats["records_built"] + missing


def test_tier_hand_off_counts(stream, monkeypatch):
    """What a flushed record pays to cross into gold, as counts: no
    ``processes`` row is ever read back, each record is folded exactly once,
    and no flush of this stream -- every row of it new -- needs a refold."""
    expected = _replay(stream)

    flushes, statements, folds, finalized = [], [], [], []
    store_init = MessageStore.__init__
    insert_if_absent = MessageStore.insert_processes_if_absent
    fold = TableRollup.fold
    finalize = IncrementalConsolidator.finalize

    def tracing_init(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        self.connection.set_trace_callback(statements.append)

    def counting_insert(self, records):
        records = list(records)
        written = insert_if_absent(self, records)
        flushes.append((len(records), written))
        return written

    def counting_fold(self, record):
        folds.append(record)
        return fold(self, record)

    def counting_finalize(self):
        finalized.extend(finalize(self))
        return finalized

    with monkeypatch.context() as patch:
        patch.setattr(MessageStore, "__init__", tracing_init)
        patch.setattr(MessageStore, "insert_processes_if_absent", counting_insert)
        patch.setattr(TableRollup, "fold", counting_fold)
        patch.setattr(IncrementalConsolidator, "finalize", counting_finalize)
        spied = _replay(stream)

    assert spied == expected
    built = expected[1]["records_built"]
    assert sum(offered for offered, _written in flushes) == built
    assert len(flushes) > 1
    assert all(written == offered for offered, written in flushes)

    # The attach's refold (of the empty table) and ``finalize`` read nothing:
    # ``finalize`` hands back the records it wrote -- the very objects gold
    # folded -- and a ``:memory:`` table holds nothing else, so no statement
    # reads ``processes``.
    assert [sql for sql in statements if "FROM processes" in sql] == []
    assert sorted(record.key for record in folds) == sorted(
        record[:6] for record in expected[0])
    folded = {id(record) for record in folds}
    assert len(finalized) == built and all(id(record) in folded for record in finalized)
    assert expected[2] == {"silver_rows": built, "rollup_rebuilds": 0,
                           "rollup_records_applied": built,
                           "rollup_syncs": len(flushes)}


def test_an_on_disk_hand_off_asks_only_for_the_highest_rowid(stream, monkeypatch,
                                                             tmp_path):
    """Another connection may write an on-disk table: the attach's refold and
    ``finalize`` each check its highest rowid, and select no row."""
    expected = _replay(stream)
    statements: list[str] = []
    with monkeypatch.context() as patch:
        _on_disk(patch, tmp_path, statements)
        assert _replay(stream) == expected
    reads = [sql for sql in statements if "FROM processes" in sql]
    assert reads == ["SELECT MAX(id) FROM processes"] * 2


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
def ordered_stream(synthetic_stream):
    """200 processes, each ended right after its burst, on a clean wire:
    no late message resurrects a closed key, so every flush is new rows."""
    workload, datagrams = synthetic_stream(seed=19)
    for pid in range(200):
        workload.emit_process(pid, time=100 + pid // 10)
        workload.maybe_end_one()
    return datagrams


def test_refresh_loop_reads_nothing_back(ordered_stream, monkeypatch):
    """Over a refresh loop, each finalized record is built once and handed
    to the live analysis as that very object: no ``processes`` row is ever
    selected, not by the first pull and not by ``finalize``, and a pull with
    nothing new builds no record and refolds no overlay."""
    stream = ordered_stream
    expected = _refresh_loop(stream)
    assert expected[2] == 200

    builds, inserted, statements, overlays, pulls = [], [], [], [], []
    peeking, finalizing = [], []
    build = incremental.build_process_record
    peek_open = incremental.IncrementalConsolidator._peek_open
    finalize = incremental.IncrementalConsolidator.finalize
    store_init = MessageStore.__init__
    insert_if_absent = MessageStore.insert_processes_if_absent
    sync, commit = LiveAnalysis.sync, LiveAnalysis.commit
    table_init = TableRollup.__init__

    def counting_build(key, rows, values):
        builds.append((key, bool(peeking)))
        return build(key, rows, values)

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

    def tracing_init(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        self.connection.set_trace_callback(statements.append)

    def tracing_finalize(self):
        start = len(statements)
        records = finalize(self)
        finalizing.extend(statements[start:])
        return records

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
        patch.setattr(incremental.IncrementalConsolidator, "finalize", tracing_finalize)
        patch.setattr(MessageStore, "__init__", tracing_init)
        patch.setattr(MessageStore, "insert_processes_if_absent", counting_insert)
        patch.setattr(LiveAnalysis, "sync", counting_sync)
        patch.setattr(LiveAnalysis, "commit", counting_commit)
        patch.setattr(TableRollup, "__init__", counting_table_init)
        spied = _refresh_loop(stream)

    assert spied == expected
    # Each key is built once when it closes (a peek builds only open keys).
    closes = [key for key, peeked in builds if not peeked]
    assert len(closes) == len(set(closes)) == 200
    # Every pull, the first (cursor 0) included, commits exactly what was
    # inserted since, as the very objects, in insert order.
    records = [record for _before, _after, batch in pulls for record in batch]
    assert len(pulls[0][2]) and len(records) == len(inserted) == 200
    assert all(mine is theirs for mine, theirs in zip(records, inserted))
    # No statement reads the ``:memory:`` table ``processes``: not the
    # attach's refold, not a pull, not ``finalize``.
    assert [sql for sql in statements if "FROM processes" in sql] == []
    assert finalizing == []
    # The second and third pulls of a slice find nothing new: they build no
    # record and refold no overlay.
    empty = pulls[1:-1:3] + pulls[2:-1:3]
    assert len(empty) == 50
    assert all(not batch and before == after for before, after, batch in empty)


def test_an_on_disk_refresh_loop_asks_only_for_the_highest_rowid(
        ordered_stream, monkeypatch, tmp_path):
    """On an on-disk store, which another connection may write, the attach's
    refold, every pull and ``finalize`` each check the highest rowid once,
    and no statement selects a row."""
    expected = _refresh_loop(ordered_stream)
    statements: list[str] = []
    finalizing: list[str] = []
    pulls = count()
    sync, finalize = LiveAnalysis.sync, incremental.IncrementalConsolidator.finalize

    def counting_sync(self):
        next(pulls)
        return sync(self)

    def tracing_finalize(self):
        start = len(statements)
        records = finalize(self)
        finalizing.extend(statements[start:])
        return records

    with monkeypatch.context() as patch:
        _on_disk(patch, tmp_path, statements)
        patch.setattr(LiveAnalysis, "sync", counting_sync)
        patch.setattr(incremental.IncrementalConsolidator, "finalize", tracing_finalize)
        assert _refresh_loop(ordered_stream) == expected
    reads = [sql for sql in statements if "FROM processes" in sql]
    assert reads == ["SELECT MAX(id) FROM processes"] * (next(pulls) + 2)
    assert finalizing == ["SELECT MAX(id) FROM processes"]


def test_one_build_and_one_procinfo_parse_per_record(ordered_stream, monkeypatch):
    """Every process of the ordered stream closes on its ``PROCEND``, whose
    check is the record build: each key is built exactly once, and each
    PROCINFO group (the SCRIPT layer's too) is parsed exactly once."""
    expected = _replay(ordered_stream)
    assert expected[1]["early_finalized"] == expected[1]["records_built"] == 200
    decoded = [UDPMessage.decode(datagram) for datagram in ordered_stream]
    procinfo_groups = {(m.jobid, m.stepid, m.pid, m.path_hash, m.host, m.time, m.layer)
                       for m in decoded if m.info_type is InfoType.PROCINFO}

    builds, parsed = [], []
    build = incremental.build_process_record
    parse_keyvalues = record_builder.parse_keyvalues

    def counting_build(key, rows, values):
        builds.append(key)
        return build(key, rows, values)

    def counting_parse(content):
        parsed.append(content)
        return parse_keyvalues(content)

    with monkeypatch.context() as patch:
        patch.setattr(incremental, "build_process_record", counting_build)
        patch.setattr(record_builder, "parse_keyvalues", counting_parse)
        spied = _replay(ordered_stream)

    assert spied == expected
    assert sorted(builds) == sorted(record[:6] for record in expected[0])
    assert len(builds) == len(set(builds)) == 200
    assert len(procinfo_groups) > 200                  # SCRIPT layers are exercised
    assert len(parsed) == len(procinfo_groups)
