"""The SIREN UDP message format.

Every datagram carries a header identifying the originating process plus the
payload.  The header fields follow Section 3.1 of the paper:

``JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE, CONTENT``

where ``HASH`` is the (128-bit) xxHash of the executable path -- its only
purpose is to distinguish different executables that reuse the same PID within
the same one-second timestamp (``exec()`` replacing the process image).  Two
extra fields, ``CHUNK`` and ``CHUNKS``, implement chunking of long contents.

Datagrams are serialised as UTF-8 text with unit-separator (0x1F) delimited
fields, preceded by a short protocol tag, and must fit in
:data:`MAX_DATAGRAM_SIZE` bytes.

This module is the only code that knows the format.  The sender frames a
process once (:func:`wire_header`) and looks each section's ``LAYER``/``TYPE``
bytes up in :data:`SECTION_KINDS`; the receiver
(:meth:`repro.ingest.incremental.IncrementalConsolidator.handle_datagram`)
turns every datagram into a :data:`MessageRow` with :func:`decode_row`, the one
decoder, whose error text is the reason a refused datagram is quarantined
under.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collector.records import InfoType, Layer
from repro.util.errors import TransportError

#: Conservative safe UDP payload size (bytes) used when chunking content.
MAX_DATAGRAM_SIZE = 1400

#: Smallest datagram budget a deployment may configure.  The sender never
#: cuts a chunk below 64 content bytes, and a header (tag, the six key
#: fields with their 32-hex path hash, layer, type, chunk counters and
#: margin) takes up to ~115 bytes on the simulated cluster, so under this
#: budget datagrams overshoot the configured size.
MIN_DATAGRAM_SIZE = 192

#: The first field of every datagram, and the separator between fields.
PROTOCOL_TAG = "SIREN1"
SEPARATOR = "\x1f"
_FIELD_COUNT = 12

#: One datagram as a raw ``messages`` table row: the six header fields,
#: ``LAYER`` and ``TYPE`` as their wire values, the chunk counters, the content.
MessageRow = tuple[str, str, int, str, str, int, str, str, int, int, str]

#: One section of a process's burst, as the collector hands it to the sender.
Section = tuple[Layer, InfoType, str]

GroupKey = tuple[str, str]

#: The ``(LAYER, TYPE)`` wire values of every member pair, built once:
#: ``.value`` is a Python-level property, too dear to evaluate per datagram.
#: :func:`decode_row` returns these very tuples, so a row's pair is also the
#: key ingest files a message's group under, its hash computed once.
GROUP_KEYS: dict[tuple[Layer, InfoType], GroupKey] = {
    (layer, info_type): (layer.value, info_type.value)
    for layer in Layer for info_type in InfoType}
_KINDS = {key: key for key in GROUP_KEYS.values()}

#: The same pairs as the sender writes them: ``(layer, type)`` -> the wire
#: bytes between a process's header and a datagram's chunk counters.
SECTION_KINDS: dict[tuple[Layer, InfoType], bytes] = {
    members: f"{SEPARATOR}{layer}{SEPARATOR}{info_type}{SEPARATOR}".encode("utf-8")
    for members, (layer, info_type) in GROUP_KEYS.items()}


def wire_header(jobid: str, stepid: str, pid: int, path_hash: str,
                host: str, time: int) -> bytes:
    """The bytes every datagram of one process starts with (tag + key fields)."""
    return SEPARATOR.join((PROTOCOL_TAG, jobid, stepid, str(pid), path_hash,
                           host, str(time))).encode("utf-8")


def decode_row(datagram: bytes) -> MessageRow:
    """Parse one datagram into its raw ``messages`` row.

    Raises :class:`~repro.util.errors.TransportError` for anything else, its
    text the reason: the bytes are not UTF-8, not twelve fields under the
    protocol tag, or the first field of pid, time, ``LAYER``, ``TYPE``,
    chunk index and chunk total (wire order) that does not read.
    """
    try:
        fields = datagram.decode("utf-8").split(SEPARATOR, _FIELD_COUNT - 1)
    except UnicodeDecodeError as exc:
        raise TransportError("datagram is not valid UTF-8") from exc
    if len(fields) != _FIELD_COUNT or fields[0] != PROTOCOL_TAG:
        raise TransportError("datagram does not carry a SIREN message")
    _, jobid, stepid, pid, path_hash, host, time, layer, info_type, index, total, content = fields
    try:
        pid, time = int(pid), int(time)
        # a pair missing from the table has an unknown LAYER or TYPE, and the
        # enum call raises with its own message
        layer, info_type = _KINDS.get((layer, info_type)) or (Layer(layer), InfoType(info_type))
        # an unchunked datagram's counters, as the sender spells them, are
        # read by comparison; any other spelling goes through int()
        if index == "0" and total == "1":
            return (jobid, stepid, pid, path_hash, host, time, layer, info_type, 0, 1, content)
        return (jobid, stepid, pid, path_hash, host, time, layer, info_type,
                int(index), int(total), content)
    except ValueError as exc:
        raise TransportError(f"malformed SIREN datagram: {exc}") from exc


@dataclass(unsafe_hash=True)
class UDPMessage:
    """One SIREN datagram (or one chunk of a chunked message), field by field.

    A value: hashable, compared by field, never mutated once built (not
    ``frozen=True``: a frozen ``__init__`` assigns through
    ``object.__setattr__``, and :meth:`decode` is timed per datagram as
    ``transport.decode_us_per_msg``).  Neither end of the hot path builds
    one; :meth:`decode` is :func:`decode_row` with ``LAYER`` and ``TYPE``
    read back into their members.
    """

    jobid: str
    stepid: str
    pid: int
    path_hash: str
    host: str
    time: int
    layer: Layer
    info_type: InfoType
    content: str
    chunk_index: int = 0
    chunk_total: int = 1

    @classmethod
    def decode(cls, datagram: bytes) -> "UDPMessage":
        """Parse datagram bytes back into a message."""
        row = decode_row(datagram)
        return cls(*row[:6], Layer(row[6]), InfoType(row[7]), row[10], row[8], row[9])
