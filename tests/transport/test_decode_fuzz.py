"""Property/fuzz tests: ``decode_row`` is total over hostile bytes.

The receiver's whole robustness story rests on one contract: for *any* input
bytes, the format's one decoder either returns a raw ``messages`` row or
raises :class:`~repro.util.errors.TransportError` -- never ``ValueError``,
``UnicodeDecodeError``, ``IndexError`` or anything else that would escape the
receiver's handler and kill the ingest loop.  Hypothesis drives arbitrary,
truncated, bit-flipped and structurally mutated datagrams at it.  Ingest
calls it once per datagram and quarantines a refusal under its error text
(``tests/transport/test_messages_chunking.py`` pins those reasons).
``decode_row`` reads an unchunked datagram's chunk counters by comparison;
:class:`TestChunkCounters` holds every other spelling to what ``int()`` reads
and every bad one to ``int()``'s error text.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.transport.messages import GROUP_KEYS, InfoType, Layer, MessageRow, UDPMessage, decode_row
from repro.util.errors import TransportError

from oracles.wire import encode, row

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


#: Messages as the sender writes most of them: one unchunked datagram, its
#: counters ``0`` and ``1``, which ``decode_row`` reads by comparison.
unchunked = messages.map(lambda message: replace(message, chunk_index=0, chunk_total=1))

#: Counter spellings ``int()`` reads that the sender never writes, and the two
#: it does: each must decode as ``int()`` reads it, shortcut or not.
counter_spellings = st.sampled_from(["00", "+0", " 1", "1_0", "\u0660", "0", "1"])

_INDEX, _TOTAL = 9, 10    # the chunk counters' places among the wire fields


def _decode_or_transport_error(datagram: bytes) -> MessageRow | None:
    """The contract under test, as a helper: anything else propagates."""
    try:
        return decode_row(datagram)
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
        decoded = decode_row(encode(message))
        assert decoded == row(message)
        # the kind pair is the canonical one ingest files groups under
        layer, info_type = GROUP_KEYS[message.layer, message.info_type]
        assert decoded[6] is layer and decoded[7] is info_type

    @given(messages, st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_every_truncation_decodes_or_raises_transport_error(self, message, cut):
        encoded = encode(message)
        truncated = encoded[:cut % (len(encoded) + 1)]
        decoded = _decode_or_transport_error(truncated)
        if len(truncated) < len(encoded):
            # A proper prefix can only succeed by decoding a shorter content
            # (the final field); every structural field is checked.
            assert decoded is None or decoded[10] != message.content \
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
            assert decoded != row(message)
        else:
            # Drop one separator: too few fields, never a silent pass-through.
            separators = [index for index, byte in enumerate(encoded)
                          if byte == 0x1F]
            victim = separators[where % len(separators)]
            mutated = encoded[:victim] + encoded[victim + 1:]
            decoded = _decode_or_transport_error(mutated)
            assert decoded != row(message)

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_non_utf8_raises_transport_error(self, suffix):
        datagram = b"SIREN1\x1f" + b"\xff\xfe" + suffix
        assert _decode_or_transport_error(datagram) is None

    @given(hostile_datagrams)
    @settings(max_examples=600, deadline=None)
    def test_hostile_datagrams_decode_to_a_row_or_raise_transport_error(self, datagram):
        decoded = _decode_or_transport_error(datagram)
        if decoded is not None:
            assert [type(value) for value in decoded] == \
                [str, str, int, str, str, int, str, str, int, int, str]
            (layer, info_type), = [key for key in GROUP_KEYS.values() if key == decoded[6:8]]
            assert decoded[6] is layer and decoded[7] is info_type


class TestChunkCounters:
    @given(unchunked | messages, st.sampled_from([_INDEX, _TOTAL]), counter_spellings)
    @settings(max_examples=200, deadline=None)
    def test_a_counter_decodes_as_int_reads_it(self, message, where, spelling):
        """A counter spelled as the sender never spells it decodes to the row
        of its canonical datagram, the counter as ``int()`` reads it."""
        counter = "chunk_index" if where == _INDEX else "chunk_total"
        canonical = replace(message, **{counter: int(spelling)})
        assert decode_row(_field_replaced(message, where, spelling)) == row(canonical)
        assert decode_row(encode(canonical)) == row(canonical)

    @given(unchunked, st.sampled_from([_INDEX, _TOTAL]),
           st.sampled_from(["", "+", "x", "1.0", "nan", "0x1", "1 1", "\u00bd"])
           | st.text(alphabet=st.characters(exclude_characters="\x1f",
                                            exclude_categories=("Cs",)), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_a_bad_counter_beside_a_canonical_one_keeps_its_error_text(
            self, message, where, counter):
        """A bad index before a total of ``1``, or a bad total after an index
        of ``0``, is refused with ``int()``'s own words, as before the
        unchunked counters were read by comparison."""
        try:
            int(counter)
        except ValueError as error:
            reason = f"malformed SIREN datagram: {error}"
        else:
            assume(False)
        with pytest.raises(TransportError) as refused:
            decode_row(_field_replaced(message, where, counter))
        assert str(refused.value) == reason
