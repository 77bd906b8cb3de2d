"""The SIREN wire format as first written: one message, field by field.

The package never encodes a :class:`~repro.transport.messages.UDPMessage`:
the sender frames a burst from a shared header and constant section kinds.
:func:`encode` is the plain encoder those framed datagrams are pinned to
(``tests/transport/test_fast_encode.py``), and the way tests turn a message
into the bytes a receiver sees.
"""

from __future__ import annotations

from dataclasses import replace

from repro.transport.messages import PROTOCOL_TAG, SEPARATOR, UDPMessage
from repro.util.errors import TransportError


def encode(message: UDPMessage) -> bytes:
    """Serialise one message to datagram bytes."""
    if SEPARATOR in message.content:
        raise TransportError("message content may not contain the field separator")
    return SEPARATOR.join((
        PROTOCOL_TAG, message.jobid, message.stepid, str(message.pid), message.path_hash,
        message.host, str(message.time), message.layer.value, message.info_type.value,
        str(message.chunk_index), str(message.chunk_total), message.content,
    )).encode("utf-8")


def with_chunk(message: UDPMessage, content: str, index: int, total: int) -> UDPMessage:
    """Copy of ``message`` carrying one chunk of a longer content."""
    return replace(message, content=content, chunk_index=index, chunk_total=total)
