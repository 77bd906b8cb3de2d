"""Tests for the streaming-ingest front (one receiver feeding one consolidator)."""

import pytest

from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore
from repro.ingest import ShardedIngest
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError


def _record_set(records):
    return sorted(tuple(getattr(r, name) for name in r.__dataclass_fields__)
                  for r in records)


def _message(pid: int, info_type: InfoType = InfoType.PROCINFO) -> UDPMessage:
    return UDPMessage(jobid="1", stepid="0", pid=pid, path_hash=f"{pid:032x}", host="n1",
                      time=100, layer=Layer.SELF, info_type=info_type, content="x")


def _corrupt_body(pid: int, tail: bytes) -> bytes:
    """A datagram with ``pid``'s valid header and an undecodable chunk counter."""
    header = _message(pid).encode().rsplit(b"\x1f", 3)[0]
    return header + b"\x1fX\x1f1\x1f" + tail


def _malformed_datagrams() -> dict[str, bytes]:
    """Datagrams the receiver must count, quarantine and otherwise ignore."""
    valid = _message(1).encode()
    return {
        "garbage": b"garbage",
        "empty": b"",
        "short-header": b"SIREN1\x1fonly\x1fthree\x1ffields",
        "wrong-magic": b"SIREN2\x1f" + valid[7:],
        "bad-chunk-counter": _corrupt_body(1, b"garbage"),
        "truncated": valid[:len(valid) // 2],
        "not-utf8": valid[:-1] + b"\xff",
    }


class TestShardCount:
    @pytest.mark.parametrize("shards", [0, -1])
    def test_at_least_one_shard_required(self, shards):
        with pytest.raises(TransportError):
            ShardedIngest(MessageStore(), shards=shards)

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_more_than_one_shard_is_refused(self, shards):
        with pytest.raises(TransportError,
                           match="Parallelism: measured and removed"):
            ShardedIngest(MessageStore(), shards=shards)
        # the one shard adds no call level: the front hands out the
        # receiver's own method
        front = ShardedIngest(MessageStore())
        assert front.handle_datagram == front.receiver.handle_datagram


class TestShardedIngestFront:
    def test_decode_errors_counted(self):
        front = ShardedIngest(MessageStore())
        front.handle_datagram(b"garbage")
        front.handle_datagram(_message(1).encode())
        front.finalize()
        assert front.decode_errors == 1
        assert front.messages_received == 1

    @pytest.mark.parametrize("shape", list(_malformed_datagrams()))
    def test_malformed_datagram_is_counted_quarantined_and_dropped(self, shape):
        datagram = _malformed_datagrams()[shape]
        store = MessageStore()
        front = ShardedIngest(store, persist_raw=True)
        front.handle_datagram(datagram)
        assert front.finalize() == []
        assert (front.decode_errors, front.messages_received) == (1, 0)
        assert [entry.datagram for entry in front.quarantine.entries()] == [datagram]
        assert store.message_count() == 0

    def test_counters_cover_receiver_and_consolidator(self):
        front = ShardedIngest(MessageStore(), batch_size=4)
        for pid in range(30):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.FILEMETA).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        records = front.finalize()
        assert len(records) == 30
        assert front.messages_received == 90
        stats = front.statistics()
        assert stats["records_built"] == 30
        assert stats["messages_consumed"] == 90

    def test_results_in_canonical_key_order(self):
        front = ShardedIngest(MessageStore())
        for pid in (44, 7, 190, 23):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        records = front.finalize()
        assert [record.pid for record in records] == [7, 23, 44, 190]

    def test_snapshot_delta_streams_each_record_once(self):
        # Every pull is a receiver flush, i.e. an idle-clock tick: four idle
        # epochs keep pid 99 open through both.
        front = ShardedIngest(MessageStore(), idle_epochs=4)
        for pid in range(4):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        front.handle_datagram(_message(99).encode())  # stays open (no PROCEND)
        first = front.snapshot_delta()
        assert sorted(r.pid for r in first.new_records) == [0, 1, 2, 3]
        assert [r.pid for r in first.open_records] == [99]
        for pid in range(4, 6):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        second = front.snapshot_delta(first.cursor)
        # only the newly finalized records; the open peek is re-served
        assert sorted(r.pid for r in second.new_records) == [4, 5]
        assert [r.pid for r in second.open_records] == [99]
        assert second.cursor > first.cursor
        # delta stream and full snapshot agree on the complete key set
        snapshot_pids = {r.pid for r in front.snapshot()}
        delta_pids = {r.pid for r in first.new_records + second.new_records}
        assert delta_pids | {99} == snapshot_pids
        front.finalize()

    def test_raw_messages_persisted_when_asked(self):
        store = MessageStore()
        front = ShardedIngest(store, batch_size=8, persist_raw=True)
        for pid in range(10):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        front.handle_datagram(_corrupt_body(3, b"garbage"))
        front.finalize()
        assert store.message_count() == 20
        assert store.process_count() == 10
        assert front.decode_errors == 1

    def test_quarantine_keeps_the_newest_evidence_and_counts_it_all(self):
        front = ShardedIngest(MessageStore(), quarantine_capacity=2)
        for index in range(6):  # header-valid, body-corrupt
            front.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
        front.finalize()
        assert front.decode_errors == 6
        assert front.quarantine.quarantined == 6
        assert front.quarantine.evicted == 4
        assert front.statistics()["quarantined"] == 2
        assert [entry.datagram[-8:] for entry in front.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]

    def test_quarantine_totals_survive_several_syncs(self):
        front = ShardedIngest(MessageStore(), quarantine_capacity=2)
        for index in range(6):
            front.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
            if index % 3 == 2:
                front.snapshot_delta()
        front.finalize()
        assert (front.quarantine.quarantined, front.quarantine.evicted) == (6, 4)
        assert [entry.datagram[-8:] for entry in front.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]


class TestShardedEqualsBatch:
    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("loss_rate", [0.0, 0.01, 0.05, 0.5])
    def test_sharded_streaming_equivalence(self, dual_ingest, seed, loss_rate):
        harness = dual_ingest(loss_rate=loss_rate, seed=seed)
        stream_store = MessageStore()
        front = ShardedIngest(stream_store, batch_size=16, flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=80)

        batch = harness.batch_records()
        streamed = front.finalize()
        assert _record_set(streamed) == _record_set(batch)
        assert _record_set(stream_store.load_processes()) == _record_set(batch)

    @pytest.mark.parametrize("batch_size, flush_batch_size",
                             [(1, 1), (4, 2), (64, 8), (500, 64)])
    def test_batch_sizes_do_not_change_output(self, dual_ingest, batch_size,
                                              flush_batch_size):
        harness = dual_ingest(loss_rate=0.01, seed=9)
        front = ShardedIngest(MessageStore(), batch_size=batch_size,
                              flush_batch_size=flush_batch_size)
        front.attach(harness.channel)
        harness.workload.emit_campaign(processes=60)
        assert _record_set(front.finalize()) == _record_set(harness.batch_records())

    def test_mid_stream_snapshots_do_not_disturb_equivalence(self, dual_ingest):
        harness = dual_ingest(loss_rate=0.02, seed=3)
        front = ShardedIngest(MessageStore(), batch_size=16, flush_batch_size=8)
        front.attach(harness.channel)
        cursor = 0
        seen_keys: set = set()
        for pid in range(50):
            harness.workload.emit_process(pid, time=100 + pid // 10)
            if pid % 10 == 9:
                delta = front.snapshot_delta(cursor)
                cursor = delta.cursor
                fresh = {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time)
                         for r in delta.new_records}
                assert not (fresh & seen_keys), "delta re-delivered a record"
                seen_keys |= fresh
                front.snapshot()  # full snapshot interleaves harmlessly
        harness.workload.end_all()
        final = front.finalize()
        assert _record_set(final) == _record_set(harness.batch_records())
        # every record was announced by exactly one delta or the final close
        final_keys = {(r.jobid, r.stepid, r.pid, r.hash, r.host, r.time)
                      for r in final}
        assert seen_keys <= final_keys
