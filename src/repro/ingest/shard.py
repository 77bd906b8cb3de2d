"""The one ingest shard, and the function that assigns datagrams to shards.

A shard is a :class:`~repro.transport.receiver.MessageReceiver` feeding an
:class:`~repro.ingest.incremental.IncrementalConsolidator` over a store.
:class:`~repro.ingest.sharded.ShardedIngest` runs exactly one of them in its
own interpreter, or one per worker process
(:mod:`repro.ingest.procworkers`) -- the same class either way, so the two
placements cannot decode, quarantine, batch or tick the idle clock
differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.db.store import MessageStore, ProcessRecord
from repro.hashing.fnv import fnv1a_32
from repro.ingest.incremental import IncrementalConsolidator
from repro.transport.receiver import DatagramQuarantine, MessageReceiver
from repro.util.timing import NULL_TIMER, StageTimer

#: Raw-datagram prefix of a SIREN message (protocol tag + field separator).
_RAW_TAG = b"SIREN1\x1f"
_RAW_SEPARATOR = b"\x1f"


def shard_of_datagram(datagram: bytes, shards: int) -> int | None:
    """Shard index straight from raw datagram bytes; ``None`` if malformed.

    The encoded header lays the six process-key fields (``JOBID`` through
    ``TIME``) contiguously between the protocol tag and the seventh field
    separator, so the byte slice covering them *is* the UTF-8 encoding of
    the ``\\x1f``-joined process key -- the string
    :func:`repro.db.tiered.record_key` builds for the consolidated record.
    Every message of one process therefore lands on the same shard, without
    decoding anything, and the assignment is FNV, not Python's randomised
    ``hash``: identical across runs and processes.  Datagrams that do not
    even carry a plausible SIREN header are screened out here (``None``)
    and never reach a shard; deeper malformations surface at the shard's
    real decode.
    """
    if not datagram.startswith(_RAW_TAG):
        return None
    start = len(_RAW_TAG)
    end = start
    for _ in range(6):
        end = datagram.find(_RAW_SEPARATOR, end)
        if end < 0:
            return None
        end += 1
    return fnv1a_32(datagram[start:end - 1]) % shards


@dataclass
class IngestShard:
    """A receiver feeding a streaming consolidator over ``store``.

    The operations -- :attr:`route`, :meth:`flush`, :meth:`sync`,
    :meth:`finalize`, :meth:`close`, :meth:`statistics` -- are the ones
    :class:`~repro.ingest.procworkers.ProcessShardPool` offers over N of
    these in worker processes, which is what lets the front hold either.
    """

    store: MessageStore
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    quarantine: DatagramQuarantine | None = None
    timer: StageTimer = field(default=NULL_TIMER, repr=False)
    receiver: MessageReceiver = field(init=False)
    consolidator: IncrementalConsolidator = field(init=False)
    #: take one datagram: the receiver's bound method itself, so a shard
    #: adds no call level to the per-datagram path
    route: Callable[[bytes], bool] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.consolidator = IncrementalConsolidator(
            self.store, flush_batch_size=self.flush_batch_size,
            idle_epochs=self.idle_epochs)
        self.consolidator.timer = self.timer
        self.receiver = MessageReceiver(
            self.store, batch_size=self.batch_size, sink=self.consolidator,
            persist_raw=self.persist_raw, quarantine=self.quarantine)
        self.route = self.receiver.handle_datagram

    def flush(self) -> int:
        """Deliver the receiver's buffer (one idle-clock tick); returns how many."""
        return self.receiver.flush()

    def sync(self) -> list[ProcessRecord]:
        """Write every finalized record to the store; returns the open peeks."""
        self.receiver.flush()
        self.consolidator.flush()
        return self.consolidator.peek_open()

    def finalize(self) -> None:
        """End of stream: close every open group and write its record."""
        self.receiver.flush()
        self.consolidator.close_all()

    def close(self) -> None:
        """Nothing to release: the shard lives on this interpreter's heap."""

    def statistics(self) -> dict[str, int]:
        """The receiver's and the consolidator's counters."""
        return {"decode_errors": self.receiver.decode_errors,
                "messages_received": self.receiver.messages_received,
                **self.consolidator.statistics()}
