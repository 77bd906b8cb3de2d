"""The sender's datagrams must be byte-identical to the per-chunk oracle.

``UDPSender`` encodes the header prefix once per message and reuses it
across chunks.  The oracle is the seed's path: probe the header overhead by
encoding a content-less copy, then ``with_chunk(...).encode()`` every chunk
through a dataclass copy.  Every datagram on the wire must be
indistinguishable from it, or stored raw messages (and their consolidation)
would depend on an optimisation.
"""

from dataclasses import replace

import pytest

from repro.collector.records import InfoType, Layer
from repro.transport.channel import InMemoryChannel
from repro.transport.chunking import split_content
from repro.transport.messages import UDPMessage
from repro.transport.sender import UDPSender


def _message(content: str) -> UDPMessage:
    return UDPMessage(jobid="9100007", stepid="2", pid=4_194_000,
                      path_hash="cd" * 16, host="nid000042",
                      time=1_733_123_456, layer=Layer.SCRIPT,
                      info_type=InfoType.FILE_H, content=content)


def _wire_bytes(message: UDPMessage, max_datagram_size: int = 1400) -> list[bytes]:
    channel = InMemoryChannel()
    captured: list[bytes] = []
    channel.subscribe(captured.append)
    UDPSender(channel, max_datagram_size=max_datagram_size).send(message)
    return captured


def _reference_bytes(message: UDPMessage, max_datagram_size: int = 1400) -> list[bytes]:
    overhead = len(replace(message, content="").encode()) + 16
    chunks = split_content(message.content, max(max_datagram_size - overhead, 64))
    return [message.with_chunk(chunk, index, len(chunks)).encode()
            for index, chunk in enumerate(chunks)]


CASES = {
    "empty": "",
    "single-chunk": "short content",
    "unicode": "naïve → ∑ mixed ユニコード payload " * 20,
    "multi-chunk": "x" * 5000,
    "two-digit-chunk-indices": "chunky " * 4000,
}


@pytest.mark.parametrize("content", CASES.values(), ids=CASES.keys())
def test_sender_datagrams_byte_identical_to_per_chunk_encode(content):
    message = _message(content)
    sent = _wire_bytes(message)
    assert sent == _reference_bytes(message)
    assert len(sent) >= 1


def test_decode_roundtrip_of_fast_datagrams():
    message = _message("payload " * 3000)
    datagrams = _wire_bytes(message)
    assert len(datagrams) > 10  # chunk indices reach two digits
    decoded = [UDPMessage.decode(datagram) for datagram in datagrams]
    assert [d.chunk_index for d in decoded] == list(range(len(datagrams)))
    assert all(d.chunk_total == len(datagrams) for d in decoded)
    assert "".join(d.content for d in decoded) == message.content


def test_header_overhead_matches_reference_encoding():
    message = _message("abc").with_chunk("abc", 0, 1)
    overhead = message.header_overhead()
    encoded = len(message.encode())
    assert overhead == encoded - len("abc".encode("utf-8"))
