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

:class:`UDPMessage` is the receive side and the format's definition
(``encode`` is the oracle the sender's datagrams are pinned to).  The sender
never builds one: it frames a process once (:func:`wire_header`) and looks
each section's ``LAYER``/``TYPE`` bytes up in :data:`SECTION_KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

_PROTOCOL_TAG = "SIREN1"
_SEPARATOR = "\x1f"
_FIELD_COUNT = 12

#: Wire value -> member.  ``decode`` calls ``Layer(...)`` / ``InfoType(...)``
#: only for a value missing here, so an unknown one still fails with the
#: enum's own message (the quarantine reason).
_LAYERS = {member.value: member for member in Layer}
_INFO_TYPES = {member.value: member for member in InfoType}

#: One section of a process's burst, as the collector hands it to the sender.
Section = tuple[Layer, InfoType, str]

#: The same tables the other way, for the sender: ``(layer, type)`` -> the
#: wire bytes between a process's header and a datagram's chunk counters.
SECTION_KINDS: dict[tuple[Layer, InfoType], bytes] = {
    (layer, info_type):
        f"{_SEPARATOR}{layer.value}{_SEPARATOR}{info_type.value}{_SEPARATOR}".encode("utf-8")
    for layer in Layer for info_type in InfoType
}


def wire_header(jobid: str, stepid: str, pid: int, path_hash: str,
                host: str, time: int) -> bytes:
    """The bytes every datagram of one process starts with (tag + key fields)."""
    return _SEPARATOR.join((_PROTOCOL_TAG, jobid, stepid, str(pid), path_hash,
                            host, str(time))).encode("utf-8")


@dataclass(unsafe_hash=True)
class UDPMessage:
    """One SIREN datagram (or one chunk of a chunked message).

    A value: hashable, compared by field, never mutated once built
    (:meth:`with_chunk` copies).  Not ``frozen=True``, because a frozen
    ``__init__`` assigns through ``object.__setattr__`` and that was more
    than half of :meth:`decode`, which the receiver runs per datagram.
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

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def encode(self) -> bytes:
        """Serialise to datagram bytes."""
        if _SEPARATOR in self.content:
            raise TransportError("message content may not contain the field separator")
        fields = [
            _PROTOCOL_TAG,
            self.jobid,
            self.stepid,
            str(self.pid),
            self.path_hash,
            self.host,
            str(self.time),
            self.layer.value,
            self.info_type.value,
            str(self.chunk_index),
            str(self.chunk_total),
            self.content,
        ]
        return _SEPARATOR.join(fields).encode("utf-8")

    @classmethod
    def decode(cls, datagram: bytes) -> "UDPMessage":
        """Parse datagram bytes back into a message."""
        try:
            text = datagram.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TransportError("datagram is not valid UTF-8") from exc
        fields = text.split(_SEPARATOR, _FIELD_COUNT - 1)
        if len(fields) != _FIELD_COUNT or fields[0] != _PROTOCOL_TAG:
            raise TransportError("datagram does not carry a SIREN message")
        try:
            return cls(
                jobid=fields[1],
                stepid=fields[2],
                pid=int(fields[3]),
                path_hash=fields[4],
                host=fields[5],
                time=int(fields[6]),
                layer=_LAYERS.get(fields[7]) or Layer(fields[7]),
                info_type=_INFO_TYPES.get(fields[8]) or InfoType(fields[8]),
                chunk_index=int(fields[9]),
                chunk_total=int(fields[10]),
                content=fields[11],
            )
        except ValueError as exc:
            raise TransportError(f"malformed SIREN datagram: {exc}") from exc

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def process_key(self) -> tuple[str, str, int, str, str]:
        """Key identifying the originating process (job, step, pid, path hash, host)."""
        return (self.jobid, self.stepid, self.pid, self.path_hash, self.host)

    def with_chunk(self, content: str, index: int, total: int) -> "UDPMessage":
        """Copy of this message carrying one chunk of a longer content."""
        if (content == self.content and index == self.chunk_index
                and total == self.chunk_total):
            return self
        return replace(self, content=content, chunk_index=index, chunk_total=total)

    def burst(self) -> tuple[bytes, list[Section]]:
        """This message as ``UDPSender.send`` arguments: its header, its one section."""
        return (wire_header(self.jobid, self.stepid, self.pid, self.path_hash,
                            self.host, self.time),
                [(self.layer, self.info_type, self.content)])
