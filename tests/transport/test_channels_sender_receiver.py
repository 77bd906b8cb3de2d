"""Tests for channels, the sender and the receiver (including real sockets)."""

from dataclasses import replace

import pytest

from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore
from repro.transport.channel import InMemoryChannel, LossyChannel, SocketChannel
from repro.transport.messages import UDPMessage, wire_header
from repro.transport.receiver import MessageReceiver
from repro.transport.sender import UDPSender
from repro.util.errors import TransportError
from repro.util.rng import SeededRNG


def _message(content: str, info_type: InfoType = InfoType.OBJECTS) -> UDPMessage:
    return UDPMessage(jobid="1", stepid="0", pid=99, path_hash="0" * 32, host="n1",
                      time=100, layer=Layer.SELF, info_type=info_type, content=content)


class TestInMemoryChannel:
    def test_delivers_to_all_subscribers(self):
        channel = InMemoryChannel()
        seen: list[bytes] = []
        channel.subscribe(seen.append)
        channel.subscribe(seen.append)
        assert channel.send(b"datagram")
        assert seen == [b"datagram", b"datagram"]
        assert channel.datagrams_sent == 1
        assert channel.bytes_sent == len(b"datagram")


class TestLossyChannel:
    def test_zero_loss_delivers_everything(self):
        channel = LossyChannel(loss_rate=0.0)
        seen: list[bytes] = []
        channel.subscribe(seen.append)
        for index in range(100):
            channel.send(bytes([index]))
        assert len(seen) == 100
        assert channel.observed_loss_rate == 0.0

    def test_full_loss_drops_everything(self):
        channel = LossyChannel(loss_rate=1.0)
        seen: list[bytes] = []
        channel.subscribe(seen.append)
        for index in range(50):
            assert not channel.send(bytes([index]))
        assert seen == []
        assert channel.datagrams_dropped == 50

    def test_loss_rate_approximate(self):
        channel = LossyChannel(loss_rate=0.2, rng=SeededRNG(3))
        for _ in range(5000):
            channel.send(b"x")
        assert 0.15 < channel.observed_loss_rate < 0.25

    def test_deterministic_given_seed(self):
        a = LossyChannel(loss_rate=0.3, rng=SeededRNG(11))
        b = LossyChannel(loss_rate=0.3, rng=SeededRNG(11))
        pattern_a = [a.send(b"x") for _ in range(200)]
        pattern_b = [b.send(b"x") for _ in range(200)]
        assert pattern_a == pattern_b

    def test_invalid_loss_rate(self):
        with pytest.raises(TransportError):
            LossyChannel(loss_rate=1.5)


class TestUDPSender:
    def test_single_datagram_for_short_message(self):
        channel = InMemoryChannel()
        sender = UDPSender(channel)
        assert sender.send(*_message("short").burst()) == 1
        assert sender.messages_sent == 1

    def test_long_message_chunked(self):
        channel = InMemoryChannel()
        received: list[bytes] = []
        channel.subscribe(received.append)
        sender = UDPSender(channel, max_datagram_size=256)
        long_content = "\n".join(f"/opt/cray/pe/lib64/library_number_{i}.so" for i in range(100))
        emitted = sender.send(*_message(long_content).burst())
        assert emitted == len(received) > 1
        decoded = [UDPMessage.decode(datagram) for datagram in received]
        assert all(message.chunk_total == len(received) for message in decoded)
        assert "".join(message.content for message in decoded) == long_content
        assert all(len(datagram) <= 256 for datagram in received)

    def test_send_errors_are_swallowed(self):
        class BrokenChannel:
            def send(self, datagram: bytes) -> bool:
                raise OSError("network is down")

            def subscribe(self, callback) -> None:  # pragma: no cover - unused
                pass

        sender = UDPSender(BrokenChannel())
        assert sender.send(*_message("x").burst()) == 0
        assert sender.send_errors == 1

    def test_burst_of_sections_shares_one_header(self):
        channel = InMemoryChannel()
        received: list[bytes] = []
        channel.subscribe(received.append)
        sender = UDPSender(channel)
        header = wire_header("1", "0", 99, "0" * 32, "n1", 100)
        assert sender.send(header, [(Layer.SELF, InfoType.OBJECTS, "a"),
                                    (Layer.SCRIPT, InfoType.FILE_H, "b")]) == 2
        assert (sender.messages_sent, sender.datagrams_sent) == (2, 2)
        assert received == [
            _message("a").encode(),
            replace(_message("b", InfoType.FILE_H), layer=Layer.SCRIPT).encode()]

    @pytest.mark.parametrize("unframeable", ["in\x1fput", "caf\udce9"],
                             ids=["separator", "lone-surrogate"])
    def test_unframeable_section_is_dropped_alone(self, unframeable):
        """A content that cannot go on the wire costs that section, counted once."""
        channel = InMemoryChannel()
        received: list[bytes] = []
        channel.subscribe(received.append)
        sender = UDPSender(channel)
        header, _ = _message("").burst()
        emitted = sender.send(header, [(Layer.SELF, InfoType.OBJECTS, "a"),
                                       (Layer.SELF, InfoType.MAPS, unframeable),
                                       (Layer.SELF, InfoType.FILE_H, "3:abc:de")])
        assert emitted == 2 and sender.send_errors == 1
        assert (sender.messages_sent, sender.datagrams_sent) == (2, 2)
        assert [UDPMessage.decode(datagram).info_type for datagram in received] == [
            InfoType.OBJECTS, InfoType.FILE_H]

    def test_empty_burst_sends_nothing(self):
        sender = UDPSender(InMemoryChannel())
        assert sender.send(_message("").burst()[0], []) == 0
        assert (sender.messages_sent, sender.datagrams_sent) == (0, 0)


class TestMessageReceiver:
    def test_end_to_end_into_store(self):
        store = MessageStore()
        channel = InMemoryChannel()
        receiver = MessageReceiver(store)
        receiver.attach(channel)
        sender = UDPSender(channel)
        sender.send(*_message("payload").burst())
        receiver.flush()
        assert store.message_count() == 1
        assert receiver.messages_received == 1

    def test_malformed_datagrams_counted_not_stored(self):
        store = MessageStore()
        receiver = MessageReceiver(store)
        receiver.handle_datagram(b"garbage")
        receiver.flush()
        assert receiver.decode_errors == 1
        assert store.message_count() == 0

    def test_batched_insertion(self):
        store = MessageStore()
        receiver = MessageReceiver(store, batch_size=10)
        for index in range(25):
            receiver.handle_datagram(_message(f"m{index}").encode())
        # Two full batches auto-flushed, 5 still buffered.
        assert store.message_count() == 20
        receiver.flush()
        assert store.message_count() == 25


class _RecordingSink:
    """Minimal MessageSink: records batches and epoch ticks."""

    def __init__(self):
        self.batches: list[list] = []
        self.epochs = 0

    def feed_many(self, messages):
        self.batches.append(list(messages))

    def advance_epoch(self):
        self.epochs += 1
        return 0


class TestReceiverSink:
    def test_sink_receives_batches_and_epochs(self):
        store = MessageStore()
        sink = _RecordingSink()
        receiver = MessageReceiver(store, sink=sink, batch_size=10)
        for index in range(25):
            receiver.handle_datagram(_message(f"m{index}").encode())
        assert [len(batch) for batch in sink.batches] == [10, 10]
        assert sink.epochs == 2

    def test_partial_batch_flushed_to_sink(self):
        store = MessageStore()
        sink = _RecordingSink()
        receiver = MessageReceiver(store, sink=sink, batch_size=10)
        for index in range(3):
            receiver.handle_datagram(_message(f"m{index}").encode())
        assert receiver.flush() == 3
        assert [len(batch) for batch in sink.batches] == [3]
        assert sink.epochs == 1
        # An empty flush delivers nothing and does not tick the epoch clock.
        assert receiver.flush() == 0
        assert sink.epochs == 1

    def test_decode_errors_counted_not_fed_to_sink(self):
        store = MessageStore()
        sink = _RecordingSink()
        receiver = MessageReceiver(store, sink=sink, persist_raw=False, batch_size=10)
        receiver.handle_datagram(b"garbage")
        receiver.handle_datagram(_message("good").encode())
        receiver.handle_datagram(b"\xff\xfe not utf-8 \x80")
        receiver.flush()
        assert receiver.decode_errors == 2
        assert receiver.messages_received == 1
        assert sum(len(batch) for batch in sink.batches) == 1

    def test_persist_raw_off_keeps_messages_table_empty(self):
        store = MessageStore()
        sink = _RecordingSink()
        receiver = MessageReceiver(store, sink=sink, persist_raw=False, batch_size=2)
        for index in range(6):
            receiver.handle_datagram(_message(f"m{index}").encode())
        receiver.flush()
        assert store.message_count() == 0
        assert sum(len(batch) for batch in sink.batches) == 6

    def test_persist_raw_and_sink_together(self):
        store = MessageStore()
        sink = _RecordingSink()
        receiver = MessageReceiver(store, sink=sink, persist_raw=True, batch_size=4)
        for index in range(4):
            receiver.handle_datagram(_message(f"m{index}").encode())
        assert store.message_count() == 4
        assert sum(len(batch) for batch in sink.batches) == 4


class TestSocketChannel:
    def test_real_udp_loopback_roundtrip(self):
        store = MessageStore()
        with SocketChannel() as channel:
            receiver = MessageReceiver(store)
            receiver.attach(channel)
            sender = UDPSender(channel)
            for index in range(20):
                sender.send(*_message(f"socket message {index}").burst())
            delivered = channel.drain()
            receiver.flush()
        assert delivered == 20
        assert store.message_count() == 20

    def test_address_is_loopback(self):
        with SocketChannel() as channel:
            host, port = channel.address
            assert host == "127.0.0.1"
            assert port > 0
