"""Tests for the UDP message format and chunking."""

import pytest

from repro.collector.records import InfoType, Layer, format_keyvalues, parse_keyvalues
from repro.transport.channel import InMemoryChannel
from repro.transport.chunking import reassemble_chunks, split_content
from repro.transport.messages import MAX_DATAGRAM_SIZE, UDPMessage, decode_row
from repro.transport.sender import UDPSender
from repro.util.errors import TransportError

from oracles.wire import burst, encode, with_chunk


def _message(content: str = "hello", info_type: InfoType = InfoType.PROCINFO) -> UDPMessage:
    return UDPMessage(jobid="9100001", stepid="0", pid=1234, path_hash="ab" * 16,
                      host="nid000001", time=1_733_000_000, layer=Layer.SELF,
                      info_type=info_type, content=content)


class TestKeyValueFormat:
    def test_roundtrip(self):
        pairs = {"pid": 12, "exe": "/usr/bin/bash", "category": "system"}
        assert parse_keyvalues(format_keyvalues(pairs)) == {
            "pid": "12", "exe": "/usr/bin/bash", "category": "system"}

    def test_empty_content(self):
        assert parse_keyvalues("") == {}

    def test_value_with_equals_sign(self):
        parsed = parse_keyvalues(format_keyvalues({"flag": "a=b"}))
        assert parsed["flag"] == "a=b"


class TestUDPMessage:
    def test_encode_decode_roundtrip(self):
        message = _message("the content")
        assert UDPMessage.decode(encode(message)) == message

    def test_all_header_fields_preserved(self):
        message = _message()
        decoded = UDPMessage.decode(encode(message))
        assert decoded.jobid == "9100001"
        assert decoded.stepid == "0"
        assert decoded.pid == 1234
        assert decoded.path_hash == "ab" * 16
        assert decoded.host == "nid000001"
        assert decoded.time == 1_733_000_000
        assert decoded.layer is Layer.SELF
        assert decoded.info_type is InfoType.PROCINFO

    def test_chunk_fields(self):
        chunked = with_chunk(_message(), "part", 2, 5)
        decoded = UDPMessage.decode(encode(chunked))
        assert decoded.chunk_index == 2 and decoded.chunk_total == 5
        assert decoded.content == "part"

    def test_rejects_separator_in_content(self):
        with pytest.raises(TransportError):
            encode(_message("bad\x1fcontent"))

    def test_decode_rejects_garbage(self):
        with pytest.raises(TransportError):
            UDPMessage.decode(b"not a siren datagram")
        with pytest.raises(TransportError):
            UDPMessage.decode(b"\xff\xfe")

    def test_decode_rejects_wrong_field_count(self):
        with pytest.raises(TransportError):
            UDPMessage.decode("SIREN1\x1fonly\x1fthree".encode())

    def test_burst_header_overhead_reasonable(self):
        """Header, kind, counters and margin leave > 1200 of 1400 bytes to content."""
        channel = InMemoryChannel()
        datagrams: list[bytes] = []
        channel.subscribe(datagrams.append)
        UDPSender(channel).send(*burst(_message("c" * (MAX_DATAGRAM_SIZE - 200))))
        (datagram,) = datagrams
        assert MAX_DATAGRAM_SIZE - 200 < len(datagram) <= MAX_DATAGRAM_SIZE

    def test_unicode_content(self):
        message = _message("durée=42µs")
        assert UDPMessage.decode(encode(message)).content == "durée=42µs"


def _with_field(index: int, value: bytes) -> bytes:
    """A valid datagram with wire field ``index`` replaced."""
    fields = encode(_message()).split(b"\x1f")
    fields[index] = value
    return b"\x1f".join(fields)


_INT_REASON = "malformed SIREN datagram: invalid literal for int() with base 10: "

#: Every malformed class with the reason the ingest object quarantines it under.
#: The strings are the parent commit's: forensics tooling greps for them.
MALFORMED = {
    "bad UTF-8": (b"\xff\xfe" + encode(_message()), "datagram is not valid UTF-8"),
    "wrong tag": (_with_field(0, b"SIREN2"), "datagram does not carry a SIREN message"),
    "11 fields": (b"\x1f".join(encode(_message()).split(b"\x1f")[:11]),
                  "datagram does not carry a SIREN message"),
    "non-int pid": (_with_field(3, b"x1"), _INT_REASON + "'x1'"),
    "non-int time": (_with_field(6, b"1.5"), _INT_REASON + "'1.5'"),
    "non-int chunk index": (_with_field(9, b""), _INT_REASON + "''"),
    "non-int chunk total": (_with_field(10, b"two"), _INT_REASON + "'two'"),
    "unknown LAYER": (_with_field(7, b"KERNEL"),
                      "malformed SIREN datagram: 'KERNEL' is not a valid Layer"),
    "empty LAYER": (_with_field(7, b""),
                    "malformed SIREN datagram: '' is not a valid Layer"),
    "unknown TYPE": (_with_field(8, b"MAPS_X"),
                     "malformed SIREN datagram: 'MAPS_X' is not a valid InfoType"),
    # fields fail in wire order: a bad pid is reported before a bad LAYER,
    # a bad LAYER before a bad chunk counter
    "bad pid and LAYER": (_with_field(3, b"x").replace(b"SELF", b"KERNEL"),
                          _INT_REASON + "'x'"),
    "bad LAYER and chunk index": (_with_field(9, b"x").replace(b"SELF", b"KERNEL"),
                                  "malformed SIREN datagram: 'KERNEL' is not a valid Layer"),
}


class TestDecodePins:
    """``UDPMessage.decode`` returns the enum members themselves, and
    ``decode_row`` refuses each malformed class with the parent commit's
    words, checking fields in wire order."""

    @pytest.mark.parametrize("layer", list(Layer))
    @pytest.mark.parametrize("info_type", list(InfoType))
    def test_round_trip_returns_the_members_themselves(self, layer, info_type):
        message = UDPMessage(jobid="j", stepid="0", pid=7, path_hash="h", host="n",
                             time=5, layer=layer, info_type=info_type, content="c",
                             chunk_index=1, chunk_total=3)
        decoded = UDPMessage.decode(encode(message))
        assert decoded == message and hash(decoded) == hash(message)
        # identity, not equality: the consolidator tests ``is Layer.SELF``,
        # and a str-enum member equals its plain-string value
        assert decoded.layer is layer and decoded.info_type is info_type

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_reason_strings_are_the_parent_commits(self, name):
        datagram, reason = MALFORMED[name]
        with pytest.raises(TransportError) as caught:
            decode_row(datagram)
        assert str(caught.value) == reason

    def test_quarantine_keeps_the_same_reasons(self):
        from repro.db.store import MessageStore
        from repro.ingest import IncrementalConsolidator

        ingest = IncrementalConsolidator(MessageStore())
        for datagram, _ in MALFORMED.values():
            assert ingest.handle_datagram(datagram) is False
        assert ingest.decode_errors == len(MALFORMED)
        assert [(entry.datagram, entry.reason) for entry in ingest.quarantine.entries()] \
            == list(MALFORMED.values())


class TestChunking:
    def test_short_content_single_chunk(self):
        assert split_content("short", 100) == ["short"]

    def test_empty_content(self):
        assert split_content("", 100) == [""]

    def test_long_content_split_and_reassembled(self):
        content = "x" * 5000
        chunks = split_content(content, 1000)
        assert len(chunks) == 5
        assert all(len(chunk.encode()) <= 1000 for chunk in chunks)
        result = reassemble_chunks(dict(enumerate(chunks)), len(chunks))
        assert result.content == content
        assert result.complete

    def test_multibyte_characters_not_split(self):
        content = "é" * 300
        chunks = split_content(content, 101)
        assert "".join(chunks) == content

    def test_missing_chunk_detected(self):
        chunks = split_content("abcdefghij" * 100, 128)
        received = dict(enumerate(chunks))
        del received[1]
        result = reassemble_chunks(received, len(chunks))
        assert not result.complete
        assert result.received_chunks == len(chunks) - 1
        assert len(result.content) < 1000

    def test_unreasonable_chunk_size_rejected(self):
        with pytest.raises(TransportError):
            split_content("abc", 2)

    def test_reassemble_validates_total(self):
        with pytest.raises(TransportError):
            reassemble_chunks({0: "x"}, 0)

    def test_out_of_range_chunks_ignored(self):
        result = reassemble_chunks({0: "a", 7: "zzz"}, 2)
        assert result.content == "a"
        assert result.received_chunks == 1

    def test_max_datagram_constant_sane(self):
        assert 512 <= MAX_DATAGRAM_SIZE <= 65507
