"""The UDP message sender embedded in the collector.

The sender is "fire and forget": it chunks long contents, encodes each chunk
as a datagram and hands it to the channel.  Any error raised by the channel is
swallowed (and counted) -- the one thing the sender must never do is disturb
the hooked user process.

Profiling the campaign driver showed encoding, not channel delivery, as the
sender's dominant cost, so the header prefix is encoded once per message and
reused across chunks (:meth:`UDPMessage.chunk_datagrams`).  The transport
tests pin the datagrams byte-identical to the per-chunk
``with_chunk(...).encode()`` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.channel import Channel
from repro.transport.chunking import split_content
from repro.transport.messages import MAX_DATAGRAM_SIZE, UDPMessage
from repro.util.timing import NULL_TIMER, StageTimer


@dataclass
class UDPSender:
    """Chunk, encode and transmit SIREN messages over a channel."""

    channel: Channel
    max_datagram_size: int = MAX_DATAGRAM_SIZE
    timer: StageTimer = field(default=NULL_TIMER, repr=False)
    messages_sent: int = 0
    datagrams_sent: int = 0
    send_errors: int = 0

    def send(self, message: UDPMessage) -> int:
        """Send one logical message; returns the number of datagrams emitted."""
        with self.timer.section("transport.encode"):
            overhead = message.header_overhead() + 16  # chunk-counter margin
            budget = max(self.max_datagram_size - overhead, 64)
            chunks = split_content(message.content, budget)
            datagrams = message.chunk_datagrams(chunks)
        emitted = 0
        with self.timer.section("transport.send"):
            for datagram in datagrams:
                try:
                    self.channel.send(datagram)
                except Exception:  # noqa: BLE001 - fire and forget, never propagate
                    self.send_errors += 1
                else:
                    emitted += 1
        self.messages_sent += 1
        self.datagrams_sent += emitted
        return emitted

    def send_all(self, messages: list[UDPMessage]) -> int:
        """Send a batch of messages; returns the total datagrams emitted."""
        return sum(self.send(message) for message in messages)
