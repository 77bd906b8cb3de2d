"""Tests for the ingest object (decode, batch, group, close, flush).

The load-bearing assertion of the whole subsystem is at the bottom:
streaming consolidation produces record-for-record identical output to the
post-pass oracle (``tests/oracles/consolidate.py``) across seeds and loss
rates, both paths fed by the *same* surviving datagrams.
"""

import sqlite3
from unittest import mock

import pytest

from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator
from repro.ingest import incremental
from repro.transport.channel import InMemoryChannel
from repro.transport.messages import UDPMessage, wire_header
from repro.transport.sender import UDPSender
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles.wire import burst, encode, row


def _record_set(records):
    return sorted(tuple(getattr(r, name) for name in r.__dataclass_fields__)
                  for r in records)


def _msg(info_type: InfoType, content: str, *, pid: int = 10, layer: Layer = Layer.SELF,
         chunk_index: int = 0, chunk_total: int = 1) -> UDPMessage:
    return UDPMessage(jobid="7", stepid="0", pid=pid, path_hash=f"{pid:032x}", host="n1",
                      time=100, layer=layer, info_type=info_type, content=content,
                      chunk_index=chunk_index, chunk_total=chunk_total)


def _system_burst(pid: int = 10) -> list[UDPMessage]:
    return [
        _msg(InfoType.PROCINFO, format_keyvalues({
            "pid": pid, "ppid": 1, "uid": 1000, "gid": 1000,
            "exe": "/usr/bin/bash", "category": "system"}), pid=pid),
        _msg(InfoType.FILEMETA, "inode=1", pid=pid),
        _msg(InfoType.OBJECTS, "/lib64/libc.so.6", pid=pid),
    ]


def _procend(pid: int = 10) -> UDPMessage:
    return _msg(InfoType.PROCEND, "end_time=105|exit_code=0", pid=pid)


def _feed(sink: IncrementalConsolidator, messages: list[UDPMessage]) -> None:
    """Hand messages straight to the filing and closing rules: delivered as
    one batch, without the epoch tick that ends a delivery."""
    sink._batch.extend(map(row, messages))
    sink.advance_epoch = lambda: 0      # an instance attribute shadows the method
    try:
        sink._deliver()
    finally:
        del sink.advance_epoch


def _datagram(pid: int, info_type: InfoType = InfoType.PROCINFO) -> bytes:
    return encode(_msg(info_type, "x", pid=pid))


def _corrupt_body(pid: int, tail: bytes) -> bytes:
    """A datagram with ``pid``'s valid header and an undecodable chunk counter."""
    header = _datagram(pid).rsplit(b"\x1f", 3)[0]
    return header + b"\x1fX\x1f1\x1f" + tail


def _malformed_datagrams() -> dict[str, bytes]:
    """Datagrams the ingest object must count, quarantine and otherwise ignore."""
    valid = _datagram(1)
    return {
        "garbage": b"garbage",
        "empty": b"",
        "short-header": b"SIREN1\x1fonly\x1fthree\x1ffields",
        "wrong-magic": b"SIREN2\x1f" + valid[7:],
        "bad-chunk-counter": _corrupt_body(1, b"garbage"),
        "truncated": valid[:len(valid) // 2],
        "not-utf8": valid[:-1] + b"\xff",
    }


class TestFinalizationRules:
    def test_early_finalize_on_procend(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        assert sink.open_processes == 1
        assert sink.records_built == 0
        _feed(sink, [_procend()])
        assert sink.open_processes == 0
        assert sink.early_finalized == 1
        record = sink.finalize()[0]
        assert record.executable == "/usr/bin/bash"
        assert record.incomplete == 0

    def test_procend_without_expected_types_waits_for_idle(self):
        """A PROCEND over an incomplete group closes one epoch later, not at once."""
        sink = IncrementalConsolidator(MessageStore())
        burst = _system_burst()
        _feed(sink, [burst[0], burst[1]])  # OBJECTS lost on the wire
        _feed(sink, [_procend()])
        assert sink.open_processes == 1  # grace for reordering transports
        sink.advance_epoch()
        assert sink.open_processes == 0
        assert sink.idle_closed == 1
        assert sink.finalize()[0].incomplete == 1

    def test_idle_close_when_procend_lost(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        assert sink.advance_epoch() == 0  # one epoch idle: still open
        assert sink.advance_epoch() == 1  # two epochs idle: closed
        assert sink.idle_closed == 1
        assert sink.finalize()[0].incomplete == 0

    def test_late_procend_after_close_is_dropped_and_counted(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        sink.advance_epoch()
        sink.advance_epoch()
        assert sink.open_processes == 0
        _feed(sink, [_procend()])
        assert sink.late_messages == 1
        assert sink.records_built == 1  # no second record for the key

    def test_chunked_content_held_open_until_all_chunks(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        _feed(sink, [_msg(InfoType.MODULES, "part-one|", chunk_index=0, chunk_total=2)])
        _feed(sink, [_procend()])
        # PROCEND saw an incomplete chunked group: held for the grace epoch.
        assert sink.open_processes == 1
        _feed(sink, [_msg(InfoType.MODULES, "part-two", chunk_index=1, chunk_total=2)])
        record = sink.finalize()[0]
        assert record.modules == "part-one|part-two"

    def test_an_out_of_range_chunk_is_not_counted_as_arrived(self):
        """Chunks ``{0, 5}`` of an announced 2 are one chunk, not two: the
        PROCEND check holds the group for its grace epoch, and the real
        chunk 1 arriving inside it completes the record instead of being
        dropped as late."""
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst()[:2])
        _feed(sink, [_msg(InfoType.OBJECTS, "/lib64/libc.so.6|", chunk_index=0, chunk_total=2),
                     _msg(InfoType.OBJECTS, "stray", chunk_index=5, chunk_total=2),
                     _procend()])
        assert (sink.early_finalized, sink.open_processes) == (0, 1)
        _feed(sink, [_msg(InfoType.OBJECTS, "/lib64/libm.so.6", chunk_index=1, chunk_total=2)])
        assert sink.late_messages == 0
        record = sink.finalize()[0]
        assert (record.objects, record.incomplete) == ("/lib64/libc.so.6|/lib64/libm.so.6", 0)

    def test_procend_waits_for_a_pair_the_record_does_not_read(self):
        """The close rule covers every pair filed, not only those the record
        reads: a SCRIPT-layer OBJECTS message missing a chunk holds a
        complete record open for the grace epoch, so its last chunk is
        filed, not counted late."""
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, [*_system_burst(),
                     _msg(InfoType.OBJECTS, "a|", layer=Layer.SCRIPT, chunk_index=0,
                          chunk_total=2),
                     _procend()])
        assert (sink.early_finalized, sink.open_processes) == (0, 1)
        _feed(sink, [_msg(InfoType.OBJECTS, "b", layer=Layer.SCRIPT, chunk_index=1,
                          chunk_total=2)])
        assert sink.late_messages == 0
        assert sink.finalize()[0].incomplete == 0

    @mock.patch.object(incremental, "FLUSH_BATCH_SIZE", 1)
    def test_evicted_key_never_clobbers_the_finalized_record(self):
        """A message later than the dedup horizon resurrects a content-free
        group; its flush must lose to the already-persisted record."""
        store = MessageStore()
        sink = IncrementalConsolidator(store)
        _feed(sink, _system_burst())
        for _ in range(2):
            sink.advance_epoch()  # idle close + flush
        for _ in range(2):
            sink.advance_epoch()  # dedup entry evicted
        _feed(sink, [_procend()])     # resurrects the key as a PROCEND-only group
        assert sink.open_processes == 1
        records = sink.finalize()
        assert len(records) == 1  # snapshot/finalize never show a duplicate
        assert records[0].executable == "/usr/bin/bash"
        assert records[0].incomplete == 0

    def test_closed_key_dedup_set_is_evicted(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        _feed(sink, [_procend()])
        assert len(sink._closed) == 1
        for _ in range(2):
            sink.advance_epoch()
        assert len(sink._closed) == 0

    def test_chunked_procinfo_keeps_the_category(self):
        """A PROCINFO chunked through ``category=...`` still names the
        category, so a user process missing its content gets the grace epoch
        instead of closing on PROCEND."""
        header = wire_header("123456", "0", 4242, "a" * 32, "nid001234", 1700000000)
        split_category = 0
        for length in range(10, 120):
            datagrams: list[bytes] = []
            channel = InMemoryChannel()
            channel.subscribe(datagrams.append)
            procinfo = format_keyvalues({"pid": 4242, "ppid": 1, "uid": 1000, "gid": 1000,
                                         "exe": "/scratch/" + "x" * length,
                                         "category": "user"})
            UDPSender(channel, max_datagram_size=192).send(header, [
                (Layer.SELF, InfoType.PROCINFO, procinfo),
                (Layer.SELF, InfoType.FILEMETA, "inode=1"),
                (Layer.SELF, InfoType.PROCEND, "end_time=1")])
            messages = [UDPMessage.decode(datagram) for datagram in datagrams]
            chunks = [m.content for m in messages if m.info_type is InfoType.PROCINFO]
            split_category += not any("category=user" in chunk for chunk in chunks)
            sink = IncrementalConsolidator(MessageStore())
            _feed(sink, messages)
            assert (sink.early_finalized, sink.open_processes) == (0, 1), length
            sink.advance_epoch()
            record = sink.finalize()[0]
            assert (record.category, record.incomplete) == ("user", 1)
        assert split_category >= 20      # the split is exercised

    def test_peak_open_processes_tracked(self):
        sink = IncrementalConsolidator(MessageStore())
        for pid in range(5):
            _feed(sink, _system_burst(pid=pid))
        for pid in range(5):
            _feed(sink, [_procend(pid=pid)])
        assert sink.peak_open_processes == 5
        assert sink.open_processes == 0



class TestFlushAndSnapshot:
    @mock.patch.object(incremental, "FLUSH_BATCH_SIZE", 2)
    def test_flush_batches_reach_store_incrementally(self):
        store = MessageStore()
        sink = IncrementalConsolidator(store)
        for pid in range(5):
            _feed(sink, _system_burst(pid=pid))
            _feed(sink, [_procend(pid=pid)])
        # Two full batches of 2 auto-flushed; the fifth record still pending.
        assert store.process_count() == 4
        sink.finalize()
        assert store.process_count() == 5

    def test_snapshot_peeks_open_groups_without_closing(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst(pid=1))
        _feed(sink, [_procend(pid=1)])
        _feed(sink, _system_burst(pid=2))  # still open: no PROCEND yet
        snapshot = sink.snapshot()
        assert len(snapshot) == 2
        assert sink.open_processes == 1  # peek did not close anything
        assert {record.pid for record in snapshot} == {1, 2}
        # The open process keeps accumulating after the snapshot.
        _feed(sink, [_procend(pid=2)])
        assert _record_set(sink.finalize()) == _record_set(snapshot)

    def test_peek_is_rebuilt_only_when_an_open_group_changed(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst(pid=1))
        first = sink.snapshot_delta().open_records
        sink.advance_epoch()                       # nothing closes
        assert sink.snapshot_delta().open_records is first   # not rebuilt
        _feed(sink, [_msg(InfoType.MODULES, "siren/0.1", pid=1)])
        second = sink.snapshot_delta().open_records
        assert [record.modules for record in second] == ["siren/0.1"]
        sink.advance_epoch()
        sink.advance_epoch()                       # an idle close, no message
        assert sink.idle_closed == 1 and sink.snapshot_delta().open_records == ()

    def test_finalize_is_stable(self):
        sink = IncrementalConsolidator(MessageStore())
        _feed(sink, _system_burst())
        first = sink.finalize()
        assert sink.finalize() == first

    def test_results_in_canonical_key_order(self):
        ingest = IncrementalConsolidator(MessageStore())
        for pid in (44, 7, 190, 23):
            ingest.handle_datagram(_datagram(pid))
            ingest.handle_datagram(_datagram(pid, InfoType.PROCEND))
        records = ingest.finalize()
        assert [record.pid for record in records] == [7, 23, 44, 190]

    @mock.patch.object(incremental, "IDLE_EPOCHS", 4)
    def test_snapshot_delta_streams_each_record_once(self):
        # Every pull delivers the batch, i.e. ticks the idle clock: four
        # idle epochs keep pid 99 open through both.
        ingest = IncrementalConsolidator(MessageStore())
        for pid in range(4):
            ingest.handle_datagram(_datagram(pid))
            ingest.handle_datagram(_datagram(pid, InfoType.PROCEND))
        ingest.handle_datagram(_datagram(99))  # stays open (no PROCEND)
        first = ingest.snapshot_delta()
        assert sorted(r.pid for r in first.new_records) == [0, 1, 2, 3]
        assert [r.pid for r in first.open_records] == [99]
        for pid in range(4, 6):
            ingest.handle_datagram(_datagram(pid))
            ingest.handle_datagram(_datagram(pid, InfoType.PROCEND))
        second = ingest.snapshot_delta(first.cursor)
        # only the newly finalized records; the open peek is re-served
        assert sorted(r.pid for r in second.new_records) == [4, 5]
        assert [r.pid for r in second.open_records] == [99]
        assert second.cursor > first.cursor
        # delta stream and full snapshot agree on the complete key set
        snapshot_pids = {r.pid for r in ingest.snapshot()}
        delta_pids = {r.pid for r in first.new_records + second.new_records}
        assert delta_pids | {99} == snapshot_pids
        ingest.finalize()


def _close(sink: IncrementalConsolidator, pid: int) -> None:
    """One whole system process, closed on its PROCEND."""
    _feed(sink, [*_system_burst(pid=pid), _procend(pid=pid)])


def _finalize_counting_reads(sink: IncrementalConsolidator, monkeypatch):
    """``sink.finalize()`` and how many times it read ``processes`` whole."""
    reads = []
    load_processes = MessageStore.load_processes

    def counting_load(self):
        reads.append(self)
        return load_processes(self)

    with monkeypatch.context() as patch:
        patch.setattr(MessageStore, "load_processes", counting_load)
        records = sink.finalize()
    return records, len(reads)


def _read_back(store: MessageStore):
    return sorted(store.load_processes(), key=lambda record: record.key)


class TestFinalizeHandBack:
    """``finalize`` returns the records it wrote without reading them back,
    and reads the table whenever the table holds rows it did not write in
    full -- then returning exactly a plain read-back in key order."""

    @mock.patch.object(incremental, "FLUSH_BATCH_SIZE", 2)
    def test_a_sole_writer_hands_back_what_it_wrote(self, monkeypatch):
        store = MessageStore()
        sink = IncrementalConsolidator(store)
        for pid in (3, 1, 2):
            _close(sink, pid)
        records, reads = _finalize_counting_reads(sink, monkeypatch)
        assert reads == 0
        assert records == _read_back(store) and [r.pid for r in records] == [1, 2, 3]
        # Handed back once: asked again, it reads the table.
        again, reads = _finalize_counting_reads(sink, monkeypatch)
        assert (again, reads) == (records, 1)

    def test_a_prepopulated_on_disk_store_is_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "siren.db")
        with MessageStore(path) as earlier:
            first = IncrementalConsolidator(earlier)
            _close(first, 1)
            first.finalize()
        with MessageStore(path) as store:
            sink = IncrementalConsolidator(store)
            _close(sink, 2)
            records, reads = _finalize_counting_reads(sink, monkeypatch)
            assert reads == 1
            assert records == _read_back(store) and [r.pid for r in records] == [1, 2]

    @mock.patch.object(incremental, "FLUSH_BATCH_SIZE", 1)
    def test_a_second_connection_writing_mid_stream_is_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "siren.db")
        with MessageStore(path) as store:
            sink = IncrementalConsolidator(store)
            _close(sink, 1)
            with MessageStore(path) as other:
                writer = IncrementalConsolidator(other)
                _close(writer, 2)
                writer.finalize()
            _close(sink, 3)
            records, reads = _finalize_counting_reads(sink, monkeypatch)
            assert reads == 1
            assert records == _read_back(store) and [r.pid for r in records] == [1, 2, 3]

    @mock.patch.object(incremental, "FLUSH_BATCH_SIZE", 1)
    def test_a_resurrected_key_whose_flush_is_ignored_is_read(self, monkeypatch):
        store = MessageStore()
        sink = IncrementalConsolidator(store)
        _feed(sink, _system_burst())
        for _ in range(4):
            sink.advance_epoch()  # idle close + flush, then the dedup entry evicted
        _feed(sink, [_procend()])     # a content-free group the insert will ignore
        records, reads = _finalize_counting_reads(sink, monkeypatch)
        assert reads == 1
        assert records == _read_back(store) and len(records) == 1
        assert records[0].executable == "/usr/bin/bash"


class TestDatagramPath:
    """Decode, count, batch, raw-persist, feed and tick."""

    @mock.patch.object(incremental, "BATCH_SIZE", 10)
    def test_each_full_batch_is_fed_and_ticks_the_epoch(self):
        ingest = IncrementalConsolidator(MessageStore())
        for pid in range(25):
            ingest.handle_datagram(_datagram(pid))
        assert (ingest.messages_received, ingest.messages_consumed) == (25, 20)
        assert ingest._epoch == 2

    @mock.patch.object(incremental, "BATCH_SIZE", 10)
    def test_a_lifecycle_call_ticks_only_after_an_accepted_message(self):
        ingest = IncrementalConsolidator(MessageStore())
        for pid in range(3):
            ingest.handle_datagram(_datagram(pid))
        ingest.snapshot_delta()               # delivers the partial batch
        assert (ingest.messages_consumed, ingest._epoch) == (3, 1)
        ingest.snapshot()
        ingest.handle_datagram(b"garbage")    # counted, not accepted
        ingest.snapshot_delta()
        ingest.finalize()
        assert ingest._epoch == 1

    @mock.patch.object(incremental, "BATCH_SIZE", 3)
    def test_the_batch_clock_closes_idle_groups(self):
        ingest = IncrementalConsolidator(MessageStore())
        for pid in (10, 20, 21):              # one burst per batch, no PROCEND
            for message in _system_burst(pid=pid):
                ingest.handle_datagram(encode(message))
        # pid 10 and 20 sat out two whole batches; 21 was fed in the last one
        assert (ingest.idle_closed, ingest.open_processes) == (2, 1)
        assert ingest.messages_consumed == 9

    def test_decode_errors_are_counted_never_fed_nor_stored(self):
        store = MessageStore()
        ingest = IncrementalConsolidator(store, persist_raw=True)
        ingest.handle_datagram(b"garbage")
        ingest.handle_datagram(_datagram(1))
        ingest.handle_datagram(b"\xff\xfe not utf-8 \x80")
        ingest.finalize()
        assert (ingest.decode_errors, ingest.messages_received,
                ingest.messages_consumed) == (2, 1, 1)
        assert store.message_count() == 1

    @pytest.mark.parametrize("persist_raw", [False, True])
    @mock.patch.object(incremental, "BATCH_SIZE", 4)
    def test_raw_messages_are_persisted_per_batch_only_when_asked(self, persist_raw):
        store = MessageStore()
        ingest = IncrementalConsolidator(store, persist_raw=persist_raw)
        for pid in range(3):
            ingest.handle_datagram(_datagram(pid))
            ingest.handle_datagram(_datagram(pid, InfoType.PROCEND))
        # one full batch delivered, two messages still buffered
        assert store.message_count() == (4 if persist_raw else 0)
        assert ingest.messages_consumed == 4
        ingest.finalize()
        assert store.message_count() == (6 if persist_raw else 0)
        assert (ingest.messages_consumed, store.process_count()) == (6, 3)

    def test_an_attached_channel_reaches_the_raw_table(self):
        store = MessageStore()
        channel = InMemoryChannel()
        ingest = IncrementalConsolidator(store, persist_raw=True)
        ingest.attach(channel)
        UDPSender(channel).send(*burst(_msg(InfoType.OBJECTS, "payload")))
        ingest.snapshot()
        assert store.message_count() == ingest.messages_received == 1

    @mock.patch.object(incremental, "BATCH_SIZE", 4)
    def test_statistics_cover_decode_and_consolidation(self):
        ingest = IncrementalConsolidator(MessageStore())
        ingest.handle_datagram(b"garbage")
        for pid in range(30):
            ingest.handle_datagram(_datagram(pid))
            ingest.handle_datagram(_datagram(pid, InfoType.FILEMETA))
            ingest.handle_datagram(_datagram(pid, InfoType.PROCEND))
        assert len(ingest.finalize()) == 30
        stats = ingest.statistics()
        assert (stats["decode_errors"], stats["quarantined"]) == (1, 1)
        assert stats["messages_received"] == stats["messages_consumed"] == 90
        assert (stats["records_built"], stats["open_processes"]) == (30, 0)


class TestQuarantine:
    @pytest.mark.parametrize("shape", list(_malformed_datagrams()))
    def test_malformed_datagram_is_counted_quarantined_and_dropped(self, shape):
        datagram = _malformed_datagrams()[shape]
        store = MessageStore()
        ingest = IncrementalConsolidator(store, persist_raw=True)
        ingest.handle_datagram(datagram)
        assert ingest.finalize() == []
        assert (ingest.decode_errors, ingest.messages_received) == (1, 0)
        assert [entry.datagram for entry in ingest.quarantine.entries()] == [datagram]
        assert store.message_count() == 0

    def test_quarantine_keeps_the_newest_evidence_and_counts_it_all(self, monkeypatch):
        monkeypatch.setattr(incremental, "QUARANTINE_CAPACITY", 2)
        ingest = IncrementalConsolidator(MessageStore())
        for index in range(6):  # header-valid, body-corrupt
            ingest.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
        ingest.finalize()
        assert ingest.decode_errors == 6
        assert ingest.quarantine.quarantined == 6
        assert ingest.quarantine.evicted == 4
        assert ingest.statistics()["quarantined"] == 2
        assert [entry.datagram[-8:] for entry in ingest.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]

    def test_quarantine_totals_survive_several_syncs(self, monkeypatch):
        monkeypatch.setattr(incremental, "QUARANTINE_CAPACITY", 2)
        ingest = IncrementalConsolidator(MessageStore())
        for index in range(6):
            ingest.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
            if index % 3 == 2:
                ingest.snapshot_delta()
        ingest.finalize()
        assert (ingest.quarantine.quarantined, ingest.quarantine.evicted) == (6, 4)
        assert [entry.datagram[-8:] for entry in ingest.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]


def _campaign_stream() -> list[bytes]:
    """The datagrams of a lossless seed-3 scale-0.0 campaign of three profiles."""
    config = CampaignConfig(scale=0.0, seed=3, loss_rate=0.0, keep_raw_messages=False)
    campaign = DeploymentCampaign(config=config, profiles=DEFAULT_PROFILES[:3])
    campaign.prepare()
    stream: list[bytes] = []
    campaign.channel.subscribe(stream.append)
    campaign.run()
    return stream


class _FailOnce:
    """A store fault hook: the ``nth`` write transaction of ``operation`` raises."""

    def __init__(self, operation: str, nth: int):
        self.operation, self.left = operation, nth

    def __call__(self, operation: str) -> None:
        if operation == self.operation:
            self.left -= 1
            if self.left == 0:
                raise sqlite3.OperationalError("database or disk is full")


class TestStoreWriteFailures:
    @pytest.mark.parametrize("operation, nth", [("insert_processes", 3),
                                                ("insert_messages", 2)])
    @mock.patch.multiple(incremental, BATCH_SIZE=50, FLUSH_BATCH_SIZE=4)
    def test_a_write_that_raises_redelivers_nothing(self, operation, nth):
        """A store write raising inside a batch delivery feeds no message
        twice and persists none twice; the failed write's records stay
        pending, so the record set is the fault-free one."""
        stream = _campaign_stream()
        fault_free = IncrementalConsolidator(MessageStore(), persist_raw=True)
        for datagram in stream:
            fault_free.handle_datagram(datagram)
        store = MessageStore()
        store.fault_injector = _FailOnce(operation, nth)
        ingest = IncrementalConsolidator(store, persist_raw=True)
        failures = 0
        for datagram in stream:
            try:
                ingest.handle_datagram(datagram)
            except sqlite3.OperationalError:
                failures += 1
        records = ingest.finalize()
        assert failures == 1
        assert store.message_count() == ingest.messages_received == len(stream)
        assert ingest.messages_consumed == ingest.messages_received
        assert ingest.late_messages == 0
        assert _record_set(records) == _record_set(fault_free.finalize())


#: (seed, loss rate) points of the equivalence contract
_EQUIVALENCE_POINTS = ([(seed, loss) for seed in (1, 2, 3)
                        for loss in (0.0, 0.0002, 0.01, 0.2)]
                       + [(seed, loss) for seed in (5, 11)
                          for loss in (0.0, 0.01, 0.05, 0.5)])


class TestStreamingEqualsBatch:
    """The equivalence contract, across seeds x loss rates."""

    @pytest.mark.parametrize("seed, loss_rate", _EQUIVALENCE_POINTS)
    @mock.patch.multiple(incremental, BATCH_SIZE=16, FLUSH_BATCH_SIZE=8)
    def test_record_for_record_equivalence(self, dual_ingest, seed, loss_rate):
        harness = dual_ingest(loss_rate=loss_rate, seed=seed)
        stream_store = MessageStore()
        ingest = IncrementalConsolidator(stream_store)
        ingest.attach(harness.channel)

        harness.workload.emit_campaign(processes=80)

        batch = harness.batch_records()
        streamed = ingest.finalize()
        assert len(streamed) == len(batch) > 0
        assert _record_set(streamed) == _record_set(batch)
        # The first-close-wins table holds exactly the same rows.
        assert _record_set(stream_store.load_processes()) == _record_set(batch)

    @mock.patch.multiple(incremental, BATCH_SIZE=8, FLUSH_BATCH_SIZE=4)
    def test_heavy_loss_still_equivalent(self, dual_ingest):
        harness = dual_ingest(loss_rate=0.5, seed=11)
        ingest = IncrementalConsolidator(MessageStore())
        ingest.attach(harness.channel)
        harness.workload.emit_campaign(processes=60)
        assert _record_set(ingest.finalize()) == _record_set(harness.batch_records())

    @pytest.mark.parametrize("batch_size, flush_batch_size",
                             [(1, 1), (4, 2), (64, 8), (500, 64)])
    def test_batch_sizes_do_not_change_output(self, dual_ingest, batch_size,
                                              flush_batch_size):
        harness = dual_ingest(loss_rate=0.01, seed=9)
        ingest = IncrementalConsolidator(MessageStore())
        ingest.attach(harness.channel)
        with mock.patch.multiple(incremental, BATCH_SIZE=batch_size,
                                 FLUSH_BATCH_SIZE=flush_batch_size):
            harness.workload.emit_campaign(processes=60)
            assert _record_set(ingest.finalize()) == _record_set(harness.batch_records())

    @mock.patch.multiple(incremental, BATCH_SIZE=16, FLUSH_BATCH_SIZE=8)
    def test_mid_stream_snapshots_do_not_disturb_equivalence(self, dual_ingest):
        harness = dual_ingest(loss_rate=0.02, seed=3)
        ingest = IncrementalConsolidator(MessageStore())
        ingest.attach(harness.channel)
        cursor = 0
        seen_keys: set = set()
        for pid in range(50):
            harness.workload.emit_process(pid, time=100 + pid // 10)
            if pid % 10 == 9:
                delta = ingest.snapshot_delta(cursor)
                cursor = delta.cursor
                fresh = {r.key for r in delta.new_records}
                assert not (fresh & seen_keys), "delta re-delivered a record"
                seen_keys |= fresh
                ingest.snapshot()  # full snapshot interleaves harmlessly
        harness.workload.end_all()
        final = ingest.finalize()
        assert _record_set(final) == _record_set(harness.batch_records())
        # every record was announced by exactly one delta or the final close
        assert seen_keys <= {r.key for r in final}
