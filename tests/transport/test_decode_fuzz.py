"""Property/fuzz tests: ``UDPMessage.decode`` is total over hostile bytes.

The receiver's whole robustness story rests on one contract: for *any* input
bytes, decode either returns a message or raises
:class:`~repro.util.errors.TransportError` -- never ``ValueError``,
``UnicodeDecodeError``, ``IndexError`` or anything else that would escape the
receiver's handler and kill the ingest loop.  Hypothesis drives arbitrary,
truncated, bit-flipped and structurally mutated datagrams at it.

Ingest does not call ``decode`` on the hot path: ``handle_datagram`` splits a
datagram straight into a raw row.  :class:`TestIngestDecodesTheFormat` holds
that fast decode to the format over the same hostile datagrams: it accepts
exactly what ``decode`` accepts, its row is the decoded message's fields, and
what it refuses is quarantined with ``decode``'s own error text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.store import MessageStore
from repro.ingest import IncrementalConsolidator
from repro.transport.messages import InfoType, Layer, UDPMessage
from repro.util.errors import TransportError

from oracles.wire import encode

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                           exclude_characters="\x1f"),
    max_size=30)

messages = st.builds(
    UDPMessage,
    jobid=printable, stepid=printable,
    pid=st.integers(min_value=0, max_value=2**31 - 1),
    path_hash=printable, host=printable,
    time=st.integers(min_value=0, max_value=2**40),
    layer=st.sampled_from(list(Layer)),
    info_type=st.sampled_from(list(InfoType)),
    # the wire format reserves \x1f as the field separator; encode refuses it.
    # Surrogate codepoints are excluded because content must be UTF-8
    # encodable to reach the wire at all.
    content=st.text(alphabet=st.characters(exclude_characters="\x1f",
                                           exclude_categories=("Cs",)),
                    max_size=200),
    chunk_index=st.integers(min_value=0, max_value=63),
    chunk_total=st.integers(min_value=1, max_value=64),
)


def _decode_or_transport_error(datagram: bytes) -> UDPMessage | None:
    """The contract under test, as a helper: anything else propagates."""
    try:
        return UDPMessage.decode(datagram)
    except TransportError:
        return None


class TestDecodeTotality:
    @given(st.binary(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_anything_else(self, blob):
        _decode_or_transport_error(blob)

    @given(messages)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, message):
        assert UDPMessage.decode(encode(message)) == message

    @given(messages, st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_every_truncation_decodes_or_raises_transport_error(self, message, cut):
        encoded = encode(message)
        truncated = encoded[:cut % (len(encoded) + 1)]
        decoded = _decode_or_transport_error(truncated)
        if len(truncated) < len(encoded):
            # A proper prefix can only succeed by decoding a shorter content
            # (the final field); every structural field is checked.
            assert decoded is None or decoded.content != message.content \
                or truncated == encoded

    @given(messages, st.integers(min_value=0), st.integers(min_value=0, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_decode_or_raise_transport_error(self, message, position, bit):
        encoded = bytearray(encode(message))
        encoded[position % len(encoded)] ^= 1 << bit
        _decode_or_transport_error(bytes(encoded))

    @given(messages, st.integers(min_value=0), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_field_count_mutations_raise_transport_error(self, message, where, add):
        encoded = encode(message)
        if add:
            # Splice in an extra separator: the field count grows, and the
            # spliced datagram must not silently decode to the original.
            cut = where % (len(encoded) + 1)
            mutated = encoded[:cut] + b"\x1f" + encoded[cut:]
            decoded = _decode_or_transport_error(mutated)
            assert decoded != message
        else:
            # Drop one separator: too few fields, never a silent pass-through.
            separators = [index for index, byte in enumerate(encoded)
                          if byte == 0x1F]
            victim = separators[where % len(separators)]
            mutated = encoded[:victim] + encoded[victim + 1:]
            decoded = _decode_or_transport_error(mutated)
            assert decoded != message

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_non_utf8_raises_transport_error(self, suffix):
        datagram = b"SIREN1\x1f" + b"\xff\xfe" + suffix
        assert _decode_or_transport_error(datagram) is None


def _flipped(message: UDPMessage, position: int, bit: int) -> bytes:
    encoded = bytearray(encode(message))
    encoded[position % len(encoded)] ^= 1 << bit
    return bytes(encoded)


def _field_replaced(message: UDPMessage, where: int, text: str) -> bytes:
    fields = encode(message).split(b"\x1f")
    fields[where % len(fields)] = text.encode("utf-8", "surrogatepass")
    return b"\x1f".join(fields)


def _separator_spliced(message: UDPMessage, where: int, add: bool) -> bytes:
    encoded = encode(message)
    if add:
        cut = where % (len(encoded) + 1)
        return encoded[:cut] + b"\x1f" + encoded[cut:]
    separators = [index for index, byte in enumerate(encoded) if byte == 0x1F]
    victim = separators[where % len(separators)]
    return encoded[:victim] + encoded[victim + 1:]


#: Field values near the format's edges: integers ``int()`` reads loosely
#: (signs, spaces, underscores, non-ASCII digits), wire values of the wrong
#: field or case, the other protocol tag, nothing at all.
edge_fields = st.sampled_from([
    "", " 7", "7 ", "+7", "-7", "1_000", "0x10", "\u0663", "7.0", "nan",
    "SELF", "SCRIPT", "self", "PROCINFO", "PROCEND", "procinfo", "SIREN1", "SIREN2",
]) | st.text(max_size=12)

hostile_datagrams = st.one_of(
    st.binary(max_size=512),
    messages.map(encode),
    st.builds(_flipped, messages, st.integers(min_value=0), st.integers(0, 7)),
    st.builds(_field_replaced, messages, st.integers(min_value=0), edge_fields),
    st.builds(_separator_spliced, messages, st.integers(min_value=0), st.booleans()),
    st.builds(lambda message, cut: encode(message)[:cut], messages,
              st.integers(min_value=0, max_value=300)),
)


class TestIngestDecodesTheFormat:
    @given(hostile_datagrams)
    @settings(max_examples=600, deadline=None)
    def test_handle_datagram_is_decode(self, datagram):
        ingest = IncrementalConsolidator(MessageStore())
        accepted = ingest.handle_datagram(datagram)
        rows = list(ingest._batch)                  # one datagram: never delivered
        reasons = [entry.reason for entry in ingest.quarantine.entries()]
        try:
            message = UDPMessage.decode(datagram)
        except TransportError as error:
            assert (accepted, rows, reasons) == (False, [], [str(error)])
            assert (ingest.decode_errors, ingest.messages_received) == (1, 0)
        else:
            assert (accepted, reasons) == (True, [])
            assert rows == [(message.jobid, message.stepid, message.pid, message.path_hash,
                             message.host, message.time, message.layer.value,
                             message.info_type.value, message.chunk_index,
                             message.chunk_total, message.content)]
            assert (ingest.decode_errors, ingest.messages_received) == (0, 1)
