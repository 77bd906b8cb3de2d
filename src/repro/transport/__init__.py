"""UDP-style transport: messages, chunking, channels and the sender.

SIREN deliberately uses connectionless, fire-and-forget UDP messaging so that
data collection can never block or crash a user process: every collected item
becomes one (or, for long lists, several chunked) datagrams sent to a central
receiver, and losses are tolerated -- the receiver simply ends up with fewer
rows, and the per-list fuzzy hashes keep partially lost lists analysable.

The transport here mirrors that design with three interchangeable channels:

* :class:`~repro.transport.channel.InMemoryChannel` -- perfect delivery,
* :class:`~repro.transport.channel.LossyChannel` -- drops a configurable
  fraction of datagrams (used to reproduce the ~0.02 % field loss reported in
  Section 3.1 and for the loss-sweep ablation bench),
* :class:`~repro.transport.channel.SocketChannel` -- real UDP datagrams over
  the loopback interface, for end-to-end realism.

The receiving end -- decode, count, quarantine -- is the ingest object's
:meth:`~repro.ingest.incremental.IncrementalConsolidator.handle_datagram`.
"""

from repro.transport.channel import Channel, InMemoryChannel, LossyChannel, SocketChannel
from repro.transport.chunking import reassemble_chunks, split_content
from repro.transport.messages import MAX_DATAGRAM_SIZE, UDPMessage
from repro.transport.sender import UDPSender

__all__ = [
    "Channel",
    "InMemoryChannel",
    "LossyChannel",
    "SocketChannel",
    "UDPSender",
    "UDPMessage",
    "MAX_DATAGRAM_SIZE",
    "split_content",
    "reassemble_chunks",
]
