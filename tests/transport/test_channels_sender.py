"""Tests for channels and the sender (including real sockets)."""

from dataclasses import replace

import pytest

from repro.collector.records import InfoType, Layer
from repro.transport.channel import InMemoryChannel, SocketChannel
from repro.transport.messages import UDPMessage, wire_header
from repro.transport.sender import UDPSender
from repro.util.errors import TransportError
from repro.util.rng import SeededRNG

from oracles.wire import burst, encode


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


class TestUDPSender:
    def test_single_datagram_for_short_message(self):
        channel = InMemoryChannel()
        sender = UDPSender(channel)
        assert sender.send(*burst(_message("short"))) == 1
        assert sender.messages_sent == 1

    def test_long_message_chunked(self):
        channel = InMemoryChannel()
        received: list[bytes] = []
        channel.subscribe(received.append)
        sender = UDPSender(channel, max_datagram_size=256)
        long_content = "\n".join(f"/opt/cray/pe/lib64/library_number_{i}.so" for i in range(100))
        emitted = sender.send(*burst(_message(long_content)))
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
        assert sender.send(*burst(_message("x"))) == 0
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
            encode(_message("a")),
            encode(replace(_message("b", InfoType.FILE_H), layer=Layer.SCRIPT))]

    @pytest.mark.parametrize("unframeable", ["in\x1fput", "caf\udce9"],
                             ids=["separator", "lone-surrogate"])
    def test_unframeable_section_is_dropped_alone(self, unframeable):
        """A content that cannot go on the wire costs that section, counted once."""
        channel = InMemoryChannel()
        received: list[bytes] = []
        channel.subscribe(received.append)
        sender = UDPSender(channel)
        header, _ = burst(_message(""))
        emitted = sender.send(header, [(Layer.SELF, InfoType.OBJECTS, "a"),
                                       (Layer.SELF, InfoType.MAPS, unframeable),
                                       (Layer.SELF, InfoType.FILE_H, "3:abc:de")])
        assert emitted == 2 and sender.send_errors == 1
        assert (sender.messages_sent, sender.datagrams_sent) == (2, 2)
        assert [UDPMessage.decode(datagram).info_type for datagram in received] == [
            InfoType.OBJECTS, InfoType.FILE_H]

    def test_empty_burst_sends_nothing(self):
        sender = UDPSender(InMemoryChannel())
        assert sender.send(burst(_message(""))[0], []) == 0
        assert (sender.messages_sent, sender.datagrams_sent) == (0, 0)


class TestSocketChannel:
    def test_real_udp_loopback_roundtrip(self):
        received: list[bytes] = []
        with SocketChannel() as channel:
            channel.subscribe(received.append)
            sender = UDPSender(channel)
            for index in range(20):
                sender.send(*burst(_message(f"socket message {index}")))
            delivered = channel.drain()
        assert delivered == 20
        assert sorted(UDPMessage.decode(datagram).content for datagram in received) \
            == sorted(f"socket message {index}" for index in range(20))

    def test_address_is_loopback(self):
        with SocketChannel() as channel:
            host, port = channel.address
            assert host == "127.0.0.1"
            assert port > 0
