"""UDP-style transport: messages, chunking, channels and the sender.

SIREN deliberately uses connectionless, fire-and-forget UDP messaging so that
data collection can never block or crash a user process: every collected item
becomes one (or, for long lists, several chunked) datagrams sent to a central
receiver, and losses are tolerated -- the receiver simply ends up with fewer
rows, and the per-list fuzzy hashes keep partially lost lists analysable.

The transport here mirrors that design with two interchangeable channels:

* :class:`~repro.transport.channel.InMemoryChannel` -- perfect delivery,
* :class:`~repro.transport.channel.SocketChannel` -- real UDP datagrams over
  the loopback interface, for end-to-end realism.

Loss is the network's, not SIREN's: the simulated network
(:mod:`repro.hpcsim.faults`) wraps a channel to drop a configurable fraction
of datagrams (the ~0.02 % field loss reported in Section 3.1) or to inject
hostile faults.

The wire format, both ends of it, lives in :mod:`repro.transport.messages`
alone: :func:`~repro.transport.messages.wire_header` and
:data:`~repro.transport.messages.SECTION_KINDS` frame a datagram, and
:func:`~repro.transport.messages.decode_row` is the one decoder.  The
receiving end -- decode, count, quarantine -- is the ingest object's
:meth:`~repro.ingest.incremental.IncrementalConsolidator.handle_datagram`.
"""

from repro.transport.channel import Channel, InMemoryChannel, SocketChannel
from repro.transport.chunking import reassemble_chunks, split_content
from repro.transport.messages import MAX_DATAGRAM_SIZE
from repro.transport.sender import UDPSender

__all__ = [
    "Channel",
    "InMemoryChannel",
    "SocketChannel",
    "UDPSender",
    "MAX_DATAGRAM_SIZE",
    "split_content",
    "reassemble_chunks",
]
