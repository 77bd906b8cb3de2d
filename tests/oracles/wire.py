"""The SIREN wire format as first written: one message, field by field.

The package never encodes a :class:`~repro.transport.messages.UDPMessage`:
the sender frames a burst from a shared header and constant section kinds.
:func:`encode` is the plain encoder those framed datagrams are pinned to
(``tests/transport/test_fast_encode.py``), and the way tests turn a message
into the bytes a receiver sees, the raw row ingest buffers (:func:`row`) or
the burst the sender frames (:func:`burst`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.transport.messages import (PROTOCOL_TAG, SEPARATOR, MessageRow, Section,
                                      UDPMessage, wire_header)
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


def row(message: UDPMessage) -> MessageRow:
    """``message`` as the raw ``messages`` row ingest buffers for it."""
    return (message.jobid, message.stepid, message.pid, message.path_hash, message.host,
            message.time, message.layer.value, message.info_type.value,
            message.chunk_index, message.chunk_total, message.content)


def burst(message: UDPMessage) -> tuple[bytes, list[Section]]:
    """``message`` as ``UDPSender.send`` arguments: its header, its one section."""
    return (wire_header(message.jobid, message.stepid, message.pid, message.path_hash,
                        message.host, message.time),
            [(message.layer, message.info_type, message.content)])


def rows(messages: list[UDPMessage]) -> list[MessageRow]:
    """:func:`row` of every message, for ``MessageStore.insert_rows``."""
    return [row(message) for message in messages]
