"""The message receiver (the paper's Go UDP server, in Python).

The receiver decodes incoming datagrams and hands them to its sinks.
Malformed datagrams are counted and dropped -- a receiver on a busy cluster
cannot afford to crash because one packet was garbled.  Optionally they are
also *quarantined*: :class:`DatagramQuarantine` keeps a bounded ring of the
raw bytes plus the decode-failure reason, so corruption on a production link
leaves a forensic trail instead of only a counter.

Two sinks are supported, independently switchable:

* **raw persistence** (``persist_raw=True``, the classic batch-ingest path):
  decoded messages are batch-inserted into the SQLite ``messages`` table, to
  be consolidated by a post-pass;
* **a streaming sink** (``sink=...``): every flushed batch is fed to an
  incremental consolidator, which builds process records *while the campaign
  runs*.  Each flush also advances the sink's idle epoch, so the sink's
  straggler-closing clock ticks in receiver batches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from repro.db.store import MessageStore
from repro.transport.channel import Channel
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError


@dataclass(frozen=True)
class QuarantinedDatagram:
    """One undecodable datagram, kept verbatim for forensics."""

    datagram: bytes  #: the raw bytes exactly as they arrived
    reason: str      #: the decode failure (the TransportError message)


@dataclass
class DatagramQuarantine:
    """A bounded ring of corrupt datagrams and why each failed to decode.

    ``quarantined`` counts every capture ever made; the ring itself holds at
    most ``capacity`` entries (oldest evicted first, counted in ``evicted``),
    so a sustained corruption storm cannot grow memory without bound while
    the most recent evidence is always available.  One quarantine instance
    may be shared by several receivers/shards -- captures are merely appends.
    """

    capacity: int = 256
    quarantined: int = 0
    evicted: int = 0
    _entries: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise TransportError("quarantine capacity must be at least 1")
        self._entries = deque(maxlen=self.capacity)

    def capture(self, datagram: bytes, reason: str) -> None:
        """Keep one corrupt datagram (evicting the oldest beyond capacity)."""
        self.quarantined += 1
        if len(self._entries) == self.capacity:
            self.evicted += 1
        self._entries.append(QuarantinedDatagram(datagram=bytes(datagram),
                                                 reason=reason))

    def drain(self) -> "tuple[list[QuarantinedDatagram], int]":
        """Hand over the retained entries and start afresh (a worker's report).

        Returns the ring's content, oldest first, and how many captures it
        evicted since the last drain -- together, every capture made.
        """
        entries, evicted = list(self._entries), self.evicted
        self._entries.clear()
        self.quarantined = self.evicted = 0
        return entries, evicted

    def extend(self, entries: "Iterable[QuarantinedDatagram]", evicted: int) -> None:
        """Merge what a remote worker's quarantine drained (process shards).

        The ``evicted`` captures never left the worker -- its ring had
        already dropped them -- but they were made, so they are counted here
        as captured and evicted; the entries then go through the ring.
        """
        self.quarantined += evicted
        self.evicted += evicted
        for entry in entries:
            self.capture(entry.datagram, entry.reason)

    def entries(self) -> "list[QuarantinedDatagram]":
        """The retained datagrams, oldest first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class MessageSink(Protocol):
    """Anything that can consume decoded messages incrementally."""

    def feed_many(self, messages: list[UDPMessage]) -> None:
        """Consume one flushed batch of decoded messages."""
        ...

    def advance_epoch(self) -> int:
        """One batch boundary passed (the sink's idle/straggler clock)."""
        ...


@dataclass
class MessageReceiver:
    """Decode datagrams and deliver them to the raw store and/or a streaming sink."""

    store: MessageStore
    messages_received: int = 0
    decode_errors: int = 0
    _buffer: list[UDPMessage] = field(default_factory=list)
    batch_size: int = 500
    sink: MessageSink | None = None
    persist_raw: bool = True
    quarantine: DatagramQuarantine | None = None

    def attach(self, channel: Channel) -> None:
        """Subscribe to a channel so every delivered datagram reaches the sinks."""
        channel.subscribe(self.handle_datagram)

    def handle_datagram(self, datagram: bytes) -> bool:
        """Decode one datagram and buffer it for delivery; ``False`` if it
        did not decode.

        Undecodable datagrams are counted (and, with a quarantine attached,
        captured with their raw bytes and the failure reason) -- never raised.
        This is the only place in the pipeline a datagram is decoded for
        ingest: every ingest shard, in this interpreter or in a worker
        process, is a receiver.
        """
        try:
            message = UDPMessage.decode(datagram)
        except TransportError as error:
            self.decode_errors += 1
            if self.quarantine is not None:
                self.quarantine.capture(datagram, str(error))
            return False
        self._buffer.append(message)
        self.messages_received += 1
        if len(self._buffer) >= self.batch_size:
            self.flush()
        return True

    def flush(self) -> int:
        """Deliver all buffered messages to the sinks; returns how many."""
        if not self._buffer:
            return 0
        delivered = len(self._buffer)
        if self.persist_raw:
            self.store.insert_many(self._buffer)
        if self.sink is not None:
            self.sink.feed_many(self._buffer)
            self.sink.advance_epoch()
        self._buffer.clear()
        return delivered
