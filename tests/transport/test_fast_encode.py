"""The sender's datagrams must be byte-identical to the per-chunk oracle.

``UDPSender.send`` frames a burst: the process's wire header is built once,
a datagram is that header plus a constant ``(layer, type)`` kind plus its
tail.  The oracle is the seed's path, one ``UDPMessage`` per section: probe
the header overhead by encoding a content-less copy, then
``with_chunk(...).encode()`` every chunk through a dataclass copy.  Every
datagram on the wire must be indistinguishable from it, or stored raw
messages (and their consolidation) would depend on an optimisation.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.records import InfoType, Layer
from repro.transport.channel import InMemoryChannel
from repro.transport.chunking import split_content
from repro.transport.messages import (
    MAX_DATAGRAM_SIZE,
    MIN_DATAGRAM_SIZE,
    Section,
    UDPMessage,
    wire_header,
)
from repro.transport.sender import UDPSender


def _message(content: str) -> UDPMessage:
    return UDPMessage(jobid="9100007", stepid="2", pid=4_194_000,
                      path_hash="cd" * 16, host="nid000042",
                      time=1_733_123_456, layer=Layer.SCRIPT,
                      info_type=InfoType.FILE_H, content=content)


def _burst_bytes(header: bytes, sections: list[Section],
                 max_datagram_size: int = MAX_DATAGRAM_SIZE) -> list[bytes]:
    channel = InMemoryChannel()
    captured: list[bytes] = []
    channel.subscribe(captured.append)
    sender = UDPSender(channel, max_datagram_size=max_datagram_size)
    assert sender.send(header, sections) == len(captured)
    assert (sender.messages_sent, sender.send_errors) == (len(sections), 0)
    return captured


def _wire_bytes(message: UDPMessage, max_datagram_size: int = MAX_DATAGRAM_SIZE) -> list[bytes]:
    return _burst_bytes(*message.burst(), max_datagram_size)


def _reference_budget(message: UDPMessage, max_datagram_size: int) -> int:
    overhead = len(replace(message, content="").encode()) + 16
    return max(max_datagram_size - overhead, 64)


def _reference_bytes(message: UDPMessage,
                     max_datagram_size: int = MAX_DATAGRAM_SIZE) -> list[bytes]:
    chunks = split_content(message.content, _reference_budget(message, max_datagram_size))
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


@pytest.mark.parametrize("max_datagram_size", [MIN_DATAGRAM_SIZE, 300, MAX_DATAGRAM_SIZE])
def test_burst_budget_is_the_reference_overhead(max_datagram_size):
    """What fits one datagram is the seed's ``header overhead + 16`` budget:
    a content of exactly that many bytes is not chunked, one more byte is."""
    budget = _reference_budget(_message(""), max_datagram_size)
    assert budget > 64
    (fits,) = _wire_bytes(_message("x" * budget), max_datagram_size)
    assert len(fits) == max_datagram_size - 16
    first, second = _wire_bytes(_message("x" * budget + "y"), max_datagram_size)
    assert UDPMessage.decode(first).content == "x" * budget
    assert UDPMessage.decode(second).content == "y"


def test_burst_budget_never_falls_below_64_content_bytes():
    message = _message("z" * 200)
    assert _reference_budget(message, 100) == 64          # the header alone is ~85
    datagrams = _wire_bytes(message, 100)
    assert [len(UDPMessage.decode(d).content) for d in datagrams] == [64, 64, 64, 8]
    assert datagrams == _reference_bytes(message, 100)


# ---------------------------------------------------------------------- #
# the property: any burst, any header, any datagram size
# ---------------------------------------------------------------------- #
_field = st.text(alphabet=st.characters(exclude_characters="\x1f",
                                        exclude_categories=("Cs",)), max_size=12)
#: Repeated units whose characters take 1, 2, 3 and 4 (astral) UTF-8 bytes,
#: behind 0-3 ASCII bytes of padding, so that over the size range every
#: alignment of a multi-byte character against a chunk edge comes up.
_units = st.text(alphabet=st.sampled_from("a\n/é→ユ😀𝔘"), min_size=1, max_size=7)
_long = st.builds(lambda pad, unit, size: "-" * pad + unit * (size // len(unit.encode())),
                  st.integers(0, 3), _units, st.integers(0, 20_000))
_contents = st.one_of(
    st.just(""),
    st.text(alphabet=st.characters(exclude_characters="\x1f", exclude_categories=("Cs",)),
            max_size=300),
    _long,
)
_sections = st.lists(st.tuples(st.sampled_from(list(Layer)), st.sampled_from(list(InfoType)),
                               _contents), min_size=1, max_size=14)


@given(jobid=_field, stepid=_field, pid=st.integers(0, 2**31 - 1), path_hash=_field,
       host=_field, time=st.integers(0, 2**40), sections=_sections,
       max_datagram_size=st.integers(MIN_DATAGRAM_SIZE, MAX_DATAGRAM_SIZE))
@settings(max_examples=250, deadline=None)
def test_any_burst_is_byte_identical_to_the_per_message_oracle(
        jobid, stepid, pid, path_hash, host, time, sections, max_datagram_size):
    key = (jobid, stepid, pid, path_hash, host, time)
    sent = _burst_bytes(wire_header(*key), sections, max_datagram_size)
    messages = [UDPMessage(*key, layer, info_type, content)
                for layer, info_type, content in sections]
    reference = [_reference_bytes(message, max_datagram_size) for message in messages]
    assert sent == [datagram for datagrams in reference for datagram in datagrams]

    decoded = iter(UDPMessage.decode(datagram) for datagram in sent)
    for message, datagrams in zip(messages, reference):
        chunks = [next(decoded) for _ in datagrams]
        assert [(c.chunk_index, c.chunk_total) for c in chunks] == [
            (index, len(chunks)) for index in range(len(chunks))]
        assert all(c.with_chunk(message.content, 0, 1) == message for c in chunks)
        assert "".join(c.content for c in chunks) == message.content
