"""Tests for the incremental (streaming) consolidator.

The load-bearing assertion of the whole subsystem is at the bottom:
streaming consolidation produces record-for-record identical output to the
batch :class:`~repro.postprocess.consolidate.Consolidator` across seeds and
loss rates, both paths fed by the *same* surviving datagrams.
"""

import pytest

from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator, ShardedIngest
from repro.transport.messages import UDPMessage
from repro.transport.receiver import MessageReceiver
from repro.util.errors import TransportError


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


class TestFinalizationRules:
    def test_early_finalize_on_procend(self):
        sink = IncrementalConsolidator(MessageStore())
        sink.feed_many(_system_burst())
        assert sink.open_processes == 1
        assert sink.records_built == 0
        sink.feed(_procend())
        assert sink.open_processes == 0
        assert sink.early_finalized == 1
        record = sink.finalize()[0]
        assert record.executable == "/usr/bin/bash"
        assert record.incomplete == 0

    def test_procend_without_expected_types_waits_for_idle(self):
        """A PROCEND over an incomplete group closes one epoch later, not at once."""
        sink = IncrementalConsolidator(MessageStore())
        burst = _system_burst()
        sink.feed_many([burst[0], burst[1]])  # OBJECTS lost on the wire
        sink.feed(_procend())
        assert sink.open_processes == 1  # grace for reordering transports
        sink.advance_epoch()
        assert sink.open_processes == 0
        assert sink.idle_closed == 1
        assert sink.finalize()[0].incomplete == 1

    def test_idle_close_when_procend_lost(self):
        sink = IncrementalConsolidator(MessageStore(), idle_epochs=2)
        sink.feed_many(_system_burst())
        assert sink.advance_epoch() == 0  # one epoch idle: still open
        assert sink.advance_epoch() == 1  # two epochs idle: closed
        assert sink.idle_closed == 1
        assert sink.finalize()[0].incomplete == 0

    def test_late_procend_after_close_is_dropped_and_counted(self):
        sink = IncrementalConsolidator(MessageStore(), idle_epochs=2)
        sink.feed_many(_system_burst())
        sink.advance_epoch()
        sink.advance_epoch()
        assert sink.open_processes == 0
        sink.feed(_procend())
        assert sink.late_messages == 1
        assert sink.records_built == 1  # no second record for the key

    def test_chunked_content_held_open_until_all_chunks(self):
        sink = IncrementalConsolidator(MessageStore())
        sink.feed_many(_system_burst())
        sink.feed(_msg(InfoType.MODULES, "part-one|", chunk_index=0, chunk_total=2))
        sink.feed(_procend())
        # PROCEND saw an incomplete chunked group: held for the grace epoch.
        assert sink.open_processes == 1
        sink.feed(_msg(InfoType.MODULES, "part-two", chunk_index=1, chunk_total=2))
        record = sink.finalize()[0]
        assert record.modules == "part-one|part-two"

    def test_evicted_key_never_clobbers_the_finalized_record(self):
        """A message later than the dedup horizon resurrects a content-free
        group; its flush must lose to the already-persisted record."""
        store = MessageStore()
        sink = IncrementalConsolidator(store, flush_batch_size=1, idle_epochs=2)
        sink.feed_many(_system_burst())
        for _ in range(2):
            sink.advance_epoch()  # idle close + flush
        for _ in range(2):
            sink.advance_epoch()  # dedup entry evicted
        sink.feed(_procend())     # resurrects the key as a PROCEND-only group
        assert sink.open_processes == 1
        records = sink.finalize()
        assert len(records) == 1  # snapshot/finalize never show a duplicate
        assert records[0].executable == "/usr/bin/bash"
        assert records[0].incomplete == 0

    def test_closed_key_dedup_set_is_evicted(self):
        sink = IncrementalConsolidator(MessageStore(), idle_epochs=2)
        sink.feed_many(_system_burst())
        sink.feed(_procend())
        assert len(sink._closed) == 1
        for _ in range(2):
            sink.advance_epoch()
        assert len(sink._closed) == 0

    def test_unsafe_idle_epochs_rejected(self):
        """One epoch of silence can be a burst straddling a batch boundary."""
        with pytest.raises(TransportError):
            IncrementalConsolidator(MessageStore(), idle_epochs=1)

    def test_peak_open_processes_tracked(self):
        sink = IncrementalConsolidator(MessageStore())
        for pid in range(5):
            sink.feed_many(_system_burst(pid=pid))
        for pid in range(5):
            sink.feed(_procend(pid=pid))
        assert sink.peak_open_processes == 5
        assert sink.open_processes == 0


class TestFlushAndSnapshot:
    def test_flush_batches_reach_store_incrementally(self):
        store = MessageStore()
        sink = IncrementalConsolidator(store, flush_batch_size=2)
        for pid in range(5):
            sink.feed_many(_system_burst(pid=pid))
            sink.feed(_procend(pid=pid))
        # Two full batches of 2 auto-flushed; the fifth record still pending.
        assert store.process_count() == 4
        sink.finalize()
        assert store.process_count() == 5

    def test_snapshot_peeks_open_groups_without_closing(self):
        front = ShardedIngest(MessageStore(), shards=1)
        sink = front.backend.consolidator
        sink.feed_many(_system_burst(pid=1))
        sink.feed(_procend(pid=1))
        sink.feed_many(_system_burst(pid=2))  # still open: no PROCEND yet
        snapshot = front.snapshot()
        assert len(snapshot) == 2
        assert sink.open_processes == 1  # peek did not close anything
        assert {record.pid for record in snapshot} == {1, 2}
        # The open process keeps accumulating after the snapshot.
        sink.feed(_procend(pid=2))
        assert _record_set(front.finalize()) == _record_set(snapshot)

    def test_finalize_is_stable(self):
        sink = IncrementalConsolidator(MessageStore())
        sink.feed_many(_system_burst())
        first = sink.finalize()
        assert sink.finalize() == first


class TestReceiverSinkIntegration:
    def test_receiver_advances_sink_epoch_per_flush(self):
        store = MessageStore()
        sink = IncrementalConsolidator(store, idle_epochs=2)
        receiver = MessageReceiver(store, sink=sink, persist_raw=False, batch_size=4)
        for message in _system_burst():
            receiver.handle_datagram(message.encode())
        receiver.flush()
        assert sink.messages_consumed == 3
        assert store.message_count() == 0  # raw persistence off
        # Two further flush boundaries with unrelated traffic close the group.
        for pid in (20, 21):
            for message in _system_burst(pid=pid):
                receiver.handle_datagram(message.encode())
            receiver.flush()
        assert sink.idle_closed >= 1


class TestStreamingEqualsBatch:
    """The equivalence contract, across seeds x loss rates."""

    @pytest.mark.parametrize("loss_rate", [0.0, 0.0002, 0.01, 0.2])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_for_record_equivalence(self, dual_ingest, seed, loss_rate):
        harness = dual_ingest(loss_rate=loss_rate, seed=seed)
        stream_store = MessageStore()
        sink = IncrementalConsolidator(stream_store, flush_batch_size=8, idle_epochs=2)
        stream_receiver = MessageReceiver(stream_store, sink=sink, persist_raw=False,
                                          batch_size=16)
        stream_receiver.attach(harness.channel)

        harness.workload.emit_campaign(processes=80)
        stream_receiver.flush()

        batch = harness.batch_records()
        streamed = sink.finalize()
        assert len(streamed) == len(batch) > 0
        assert _record_set(streamed) == _record_set(batch)
        # The upserted table holds exactly the same rows.
        assert _record_set(stream_store.load_processes()) == _record_set(batch)

    def test_heavy_loss_still_equivalent(self, dual_ingest):
        harness = dual_ingest(loss_rate=0.5, seed=11)
        stream_store = MessageStore()
        sink = IncrementalConsolidator(stream_store, flush_batch_size=4, idle_epochs=2)
        receiver = MessageReceiver(stream_store, sink=sink, persist_raw=False, batch_size=8)
        receiver.attach(harness.channel)
        harness.workload.emit_campaign(processes=60)
        receiver.flush()
        assert _record_set(sink.finalize()) == _record_set(harness.batch_records())
