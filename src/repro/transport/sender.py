"""The UDP message sender embedded in the collector.

The sender is "fire and forget": it frames a process's sections as
datagrams, chunking long contents, and hands them to the channel.  Any error
raised by the channel is swallowed (and counted) -- the one thing the sender
must never do is disturb the hooked user process.

Profiling the campaign driver showed framing, not channel delivery, as the
sender's dominant cost, so a burst pays once for what its datagrams share:
the collector builds the process's wire header once per hook call
(:func:`~repro.transport.messages.wire_header`) and a datagram is that header
plus a constant ``(layer, type)`` kind plus its tail.  The transport tests pin
the datagrams byte-identical to the per-chunk ``with_chunk(...).encode()``
oracle.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.transport.channel import Channel
from repro.transport.chunking import split_content
from repro.transport.messages import MAX_DATAGRAM_SIZE, SECTION_KINDS, Section
from repro.util.timing import NULL_TIMER, StageTimer

_SEPARATOR = b"\x1f"
#: The CHUNK and CHUNKS fields a datagram's tail opens with ...
_COUNTERS = b"%d\x1f%d\x1f"
#: ... and those of a content that fits one datagram.
_UNCHUNKED = _COUNTERS % (0, 1)
#: Datagram bytes kept free beyond header and kind: the ``0␟1␟`` counters
#: plus a 16-byte margin for the wider counters of a chunked content.
_TAIL_RESERVE = len(_UNCHUNKED) + 16


@dataclass
class UDPSender:
    """Frame, chunk and transmit the sections of one process over a channel."""

    channel: Channel
    max_datagram_size: int = MAX_DATAGRAM_SIZE
    timer: StageTimer = field(default=NULL_TIMER, repr=False)
    messages_sent: int = 0
    datagrams_sent: int = 0
    send_errors: int = 0

    def send(self, header: bytes, sections: Iterable[Section]) -> int:
        """Send one process's burst; returns the number of datagrams emitted.

        ``header`` is the process's :func:`~repro.transport.messages.wire_header`.
        A section whose content carries the field separator (or does not
        encode) cannot be framed: it is dropped and counted in ``send_errors``,
        the rest still go out.
        """
        datagrams: list[bytes] = []
        messages = 0
        with self.timer.section("transport.encode"):
            for layer, info_type, content in sections:
                try:
                    data = content.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate
                    data = None
                if data is None or _SEPARATOR in data:
                    self.send_errors += 1
                    continue
                messages += 1
                head = header + SECTION_KINDS[layer, info_type]
                budget = max(self.max_datagram_size - len(head) - _TAIL_RESERVE, 64)
                if len(data) <= budget:
                    datagrams.append(head + _UNCHUNKED + data)
                else:
                    chunks = split_content(content, budget)
                    datagrams.extend(
                        head + _COUNTERS % (index, len(chunks)) + chunk.encode("utf-8")
                        for index, chunk in enumerate(chunks))
        emitted = 0
        with self.timer.section("transport.send"):
            deliver = self.channel.send
            for datagram in datagrams:
                try:
                    deliver(datagram)
                except Exception:  # noqa: BLE001 - fire and forget, never propagate
                    self.send_errors += 1
                else:
                    emitted += 1
        self.messages_sent += messages
        self.datagrams_sent += emitted
        return emitted
