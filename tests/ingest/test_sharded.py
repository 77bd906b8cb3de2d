"""Tests for the streaming-ingest front (one in-process shard, or N worker processes)."""

import multiprocessing
import time

import pytest

from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import record_key, shard_of_key
from repro.ingest import IngestShard, ProcessShardPool, ShardedIngest, shard_of_datagram
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError
from repro.workload import CampaignConfig, DeploymentCampaign


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


def _shard_worker_children():
    """Live shard-worker children (ignores unrelated pools, e.g. hashing)."""
    return [process for process in multiprocessing.active_children()
            if process.name.startswith("siren-shard-")]


class TestShardRouting:
    def test_same_process_key_always_same_shard(self):
        for pid in range(50):
            shards = {shard_of_datagram(_message(pid, info_type).encode(), 4)
                      for info_type in (InfoType.PROCINFO, InfoType.OBJECTS,
                                        InfoType.PROCEND)}
            assert len(shards) == 1

    def test_routing_is_deterministic_and_spread(self):
        assignments = [shard_of_datagram(_message(pid).encode(), 4)
                       for pid in range(200)]
        assert assignments == [shard_of_datagram(_message(pid).encode(), 4)
                               for pid in range(200)]
        assert set(assignments) == {0, 1, 2, 3}

    def test_at_least_one_shard_required(self):
        with pytest.raises(TransportError):
            ShardedIngest(MessageStore(), shards=0)

    def test_backend_follows_from_the_shard_count(self):
        assert "workers" not in ShardedIngest.__dataclass_fields__
        front = ShardedIngest(MessageStore(), shards=1)
        assert isinstance(front.backend, IngestShard)
        assert _shard_worker_children() == []
        # the front adds no call level: it hands out the receiver's own method
        assert front.handle_datagram == front.backend.receiver.handle_datagram
        front = ShardedIngest(MessageStore(), shards=2)
        try:
            assert isinstance(front.backend, ProcessShardPool)
            assert len(_shard_worker_children()) == 2
        finally:
            front.close()

    def test_raw_datagram_routing_matches_the_record_key_partition(self):
        # The raw header slice is byte-identical to the key string the
        # tiered store partitions consolidated records by, so a record's
        # silver shard is the ingest shard its datagrams were routed to.
        for pid in range(100):
            for info_type in (InfoType.PROCINFO, InfoType.PROCEND):
                message = _message(pid, info_type)
                record = ProcessRecord(
                    jobid=message.jobid, stepid=message.stepid, pid=message.pid,
                    hash=message.path_hash, host=message.host, time=message.time)
                for shards in (1, 2, 4, 7):
                    assert shard_of_datagram(message.encode(), shards) == \
                        shard_of_key(record_key(record), shards)

    def test_raw_routing_screens_malformed_headers(self):
        assert shard_of_datagram(b"garbage", 4) is None
        assert shard_of_datagram(b"SIREN1\x1fonly\x1fthree\x1ffields", 4) is None
        assert shard_of_datagram("SIREN2\x1f".encode() + _message(1).encode()[7:], 4) is None


class TestShardKeyDistribution:
    """Guard against a degenerate FNV partition silently serializing the fleet."""

    @pytest.fixture(scope="class")
    def campaign_datagrams(self) -> list[bytes]:
        campaign = DeploymentCampaign(config=CampaignConfig(
            scale=0.01, seed=101, loss_rate=0.0, ingest_mode="streaming",
            keep_raw_messages=False))
        campaign.prepare()
        captured: list[bytes] = []
        campaign.channel.subscribe(captured.append)
        campaign.run()
        assert len(captured) > 10_000
        return captured

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_no_shard_receives_more_than_twice_the_mean(self, campaign_datagrams,
                                                        shards):
        counts = [0] * shards
        for datagram in campaign_datagrams:
            shard = shard_of_datagram(datagram, shards)
            assert shard is not None
            counts[shard] += 1
        mean = len(campaign_datagrams) / shards
        assert min(counts) > 0, f"idle shard in {counts}"
        assert max(counts) <= 2 * mean, (
            f"degenerate FNV partition: shard loads {counts} vs mean {mean:.0f}")


class TestShardedIngestFront:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_decode_errors_counted(self, shards):
        front = ShardedIngest(MessageStore(), shards=shards)
        front.handle_datagram(b"garbage")
        front.handle_datagram(_message(1).encode())
        front.finalize()
        assert front.decode_errors == 1
        assert front.messages_received == 1

    @pytest.mark.parametrize("shards", [1, 3])
    def test_counters_merge_across_shards(self, shards):
        front = ShardedIngest(MessageStore(), shards=shards, batch_size=4)
        for pid in range(30):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.FILEMETA).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        records = front.finalize()
        assert len(records) == 30
        assert front.messages_received == 90
        stats = front.statistics()
        assert stats["shards"] == shards
        assert stats["records_built"] == 30
        assert stats["messages_consumed"] == 90

    def test_every_worker_shard_participates(self, composed_shards):
        reference = composed_shards(3, batch_size=4)
        for pid in range(30):
            reference.handle_datagram(_message(pid).encode())
            reference.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        reference.finalize()
        assert all(front.statistics()["records_built"] > 0
                   for front in reference.fronts)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_results_in_canonical_key_order(self, shards):
        front = ShardedIngest(MessageStore(), shards=shards)
        for pid in (44, 7, 190, 23):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        records = front.finalize()
        assert [record.pid for record in records] == [7, 23, 44, 190]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_snapshot_delta_streams_each_record_once(self, shards):
        # Every pull is a receiver flush, i.e. an idle-clock tick of the
        # in-process shard: four idle epochs keep pid 99 open through both.
        front = ShardedIngest(MessageStore(), shards=shards, idle_epochs=4)
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

    @pytest.mark.parametrize("shards", [1, 2])
    def test_raw_messages_persisted_when_asked(self, shards):
        store = MessageStore()
        front = ShardedIngest(store, shards=shards, batch_size=8, persist_raw=True)
        for pid in range(10):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        front.handle_datagram(_corrupt_body(3, b"garbage"))
        front.finalize()
        assert store.message_count() == 20
        assert store.process_count() == 10
        assert front.decode_errors == 1  # once, wherever it was decoded

    @pytest.mark.parametrize("shards", [1, 2])
    def test_quarantine_keeps_the_newest_evidence_and_counts_it_all(self, shards):
        """Regression: a shard worker kept the *oldest* ``capacity`` captures
        between two syncs and dropped the rest uncounted."""
        front = ShardedIngest(MessageStore(), shards=shards, quarantine_capacity=2)
        for index in range(6):  # header-valid, body-corrupt: all on one shard
            front.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
        front.finalize()
        assert front.decode_errors == 6
        assert front.quarantine.quarantined == 6
        assert front.quarantine.evicted == 4
        assert front.statistics()["quarantined"] == 2
        assert [entry.datagram[-8:] for entry in front.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]

    def test_quarantine_totals_survive_several_syncs(self):
        front = ShardedIngest(MessageStore(), shards=2, quarantine_capacity=2)
        for index in range(6):
            front.handle_datagram(_corrupt_body(3, b"garbage%d" % index))
            if index % 3 == 2:
                front.snapshot_delta()
        front.finalize()
        assert (front.quarantine.quarantined, front.quarantine.evicted) == (6, 4)
        assert [entry.datagram[-8:] for entry in front.quarantine.entries()] == \
            [b"garbage4", b"garbage5"]


class TestProcessWorkerLifecycle:
    def test_finalize_joins_all_workers_and_leaves_no_children(self):
        front = ShardedIngest(MessageStore(), shards=3, batch_size=8)
        for pid in range(24):
            front.handle_datagram(_message(pid).encode())
            front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
        records = front.finalize()
        assert len(records) == 24
        assert front.backend.alive_workers() == []
        assert all(process.exitcode == 0 for process in front.backend.processes)
        assert _shard_worker_children() == []
        # finalize is idempotent once the workers are gone
        assert len(front.finalize()) == 24

    def test_killed_worker_surfaces_transport_error_not_a_hang(self):
        # max_restarts=0 restores fail-fast; the default supervisor would
        # heal this kill instead (tests/ingest/test_selfheal.py).
        front = ShardedIngest(MessageStore(), shards=2, batch_size=8,
                              max_restarts=0)
        for pid in range(20):
            front.handle_datagram(_message(pid).encode())
        front.backend.processes[0].kill()
        deadline = time.monotonic() + 30
        with pytest.raises(TransportError, match="shard 0 worker died"):
            while True:  # replay continues until the front notices the crash
                assert time.monotonic() < deadline, "crash was never surfaced"
                for pid in range(20, 40):
                    front.handle_datagram(_message(pid).encode())
                    front.handle_datagram(_message(pid, InfoType.PROCEND).encode())
                front.finalize()
        # the failure tore the whole pool down -- no orphaned children
        assert front.backend.alive_workers() == []
        assert _shard_worker_children() == []

    def test_close_aborts_workers_without_final_merge(self):
        front = ShardedIngest(MessageStore(), shards=2)
        front.handle_datagram(_message(1).encode())
        front.close()
        assert front.backend.alive_workers() == []
        assert _shard_worker_children() == []


class TestShardedEqualsBatch:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("loss_rate", [0.0, 0.01])
    def test_sharded_streaming_equivalence(self, dual_ingest, shards, loss_rate):
        harness = dual_ingest(loss_rate=loss_rate, seed=5)
        stream_store = MessageStore()
        front = ShardedIngest(stream_store, shards=shards, batch_size=16,
                              flush_batch_size=8)
        front.attach(harness.channel)

        harness.workload.emit_campaign(processes=80)

        batch = harness.batch_records()
        streamed = front.finalize()
        assert _record_set(streamed) == _record_set(batch)
        assert _record_set(stream_store.load_processes()) == _record_set(batch)

    def test_shard_count_does_not_change_output(self, dual_ingest):
        outputs = {}
        for shards in (1, 2, 5):
            harness = dual_ingest(loss_rate=0.01, seed=9)
            front = ShardedIngest(MessageStore(), shards=shards)
            front.attach(harness.channel)
            harness.workload.emit_campaign(processes=60)
            outputs[shards] = _record_set(front.finalize())
        assert outputs[1] == outputs[2] == outputs[5]


class TestWorkersEqualComposedShardsEqualBatch:
    """The tentpole pin: all three ingest paths, one datagram stream.

    Worker-process ingest must be record-for-record *and*
    counter-for-counter identical to the same number of in-process fronts
    fed the same partition, and to the batch post-pass, across seeds, loss
    rates up to 50% and shard counts -- it is the same shard class fed the
    same batches, so the per-shard idle-close epoch clocks coincide and even
    the early-vs-idle close split must agree exactly.
    """

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("loss_rate", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_dual_ingest_equivalence(self, dual_ingest, composed_shards, seed,
                                     loss_rate, shards):
        harness = dual_ingest(loss_rate=loss_rate, seed=seed)
        reference = composed_shards(shards, batch_size=16, flush_batch_size=8)
        process_store = MessageStore()
        process_front = ShardedIngest(process_store, shards=shards, batch_size=16,
                                      flush_batch_size=8)
        reference.attach(harness.channel)
        process_front.attach(harness.channel)

        harness.workload.emit_campaign(processes=60)

        batch = harness.batch_records()
        composed = reference.finalize()
        processed = process_front.finalize()
        assert _record_set(processed) == _record_set(composed) == _record_set(batch)
        assert _record_set(process_store.load_processes()) == _record_set(batch)
        assert process_front.statistics() == reference.statistics()

    def test_mid_stream_snapshots_do_not_disturb_equivalence(self, dual_ingest):
        harness = dual_ingest(loss_rate=0.02, seed=3)
        front = ShardedIngest(MessageStore(), shards=2, batch_size=16,
                              flush_batch_size=8)
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
