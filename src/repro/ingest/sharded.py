"""The streaming ingest front: one receiver feeding one consolidator.

The paper's receiver is a single UDP server feeding a consolidation step.
:class:`ShardedIngest` is that, live: datagrams go to a
:class:`~repro.transport.receiver.MessageReceiver` whose sink is an
:class:`~repro.ingest.incremental.IncrementalConsolidator`, finalized records
land in the store, and ``snapshot()`` / ``snapshot_delta()`` / ``finalize()``
read them back.  It runs in this interpreter, over the caller's store.

More than one shard is refused: several shards in one interpreter share one
GIL, and shards in worker processes lost to this one on every measurement
(``docs/architecture.md``, "Parallelism: measured and removed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.db.store import MessageStore, ProcessRecord
from repro.ingest.incremental import IncrementalConsolidator
from repro.transport.channel import Channel
from repro.transport.receiver import DatagramQuarantine, MessageReceiver
from repro.util.errors import TransportError


def _in_key_order(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Sort records by the process header key (the canonical record order)."""
    return sorted(records, key=lambda r: r.key)


@dataclass(frozen=True)
class ProcessDelta:
    """One pull of the live record stream: what changed since the last cursor.

    ``new_records`` are the records finalized since the previous cursor, in
    store rowid (finalization) order -- each record appears in exactly one
    delta, so consumers can fold them into accumulators without rescanning.
    ``open_records`` is the *current* non-destructive peek at still-open
    process groups; it is transient (re-peeked on every pull, superseded by
    the next delta) and may include a key that is already finalized when a
    very late message resurrected it -- consumers overlay it on top of their
    committed state, dropping keys they have already seen, exactly as
    :meth:`ShardedIngest.snapshot` does.  ``cursor`` is the new high-water
    mark to pass to the next :meth:`ShardedIngest.snapshot_delta` call.
    """

    new_records: tuple[ProcessRecord, ...]
    open_records: tuple[ProcessRecord, ...]
    cursor: int


@dataclass
class ShardedIngest:
    """Streaming ingest: a receiver feeding a consolidator over ``store``.

    ``shards`` accepts exactly 1 (module docstring).  ``quarantine_capacity``
    keeps the raw bytes and decode-failure reason of the most recent
    undecodable datagrams in a bounded ring
    (:class:`~repro.transport.receiver.DatagramQuarantine`); 0 disables it.
    """

    store: MessageStore
    shards: int = 1
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    quarantine_capacity: int = 256
    quarantine: DatagramQuarantine | None = field(init=False, default=None)
    receiver: MessageReceiver = field(init=False)
    consolidator: IncrementalConsolidator = field(init=False)
    #: take one datagram: the receiver's bound method itself, so the front
    #: adds no call level to the per-datagram path
    handle_datagram: Callable[[bytes], bool] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.shards != 1:
            raise TransportError(
                f"ingest runs as exactly one in-process shard, got shards="
                f"{self.shards!r} (docs/architecture.md, \"Parallelism: "
                "measured and removed\")")
        if self.quarantine_capacity:
            self.quarantine = DatagramQuarantine(capacity=self.quarantine_capacity)
        self.consolidator = IncrementalConsolidator(
            self.store, flush_batch_size=self.flush_batch_size,
            idle_epochs=self.idle_epochs)
        self.receiver = MessageReceiver(
            self.store, batch_size=self.batch_size, sink=self.consolidator,
            persist_raw=self.persist_raw, quarantine=self.quarantine)
        self.handle_datagram = self.receiver.handle_datagram

    def attach(self, channel: Channel) -> None:
        """Subscribe the front to a channel."""
        channel.subscribe(self.handle_datagram)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _sync(self) -> list[ProcessRecord]:
        """Write every finalized record to the store; returns the open peeks."""
        self.receiver.flush()
        self.consolidator.flush()
        return self.consolidator.peek_open()

    def snapshot(self) -> list[ProcessRecord]:
        """Live view: write what is finalized, then read the store once.

        Finalized records come back from the ``processes`` table (memory
        holds only in-flight groups); still-open groups are peeked
        non-destructively.  Returned in canonical process-key order.
        """
        open_peeks = self._sync()
        records = self.store.load_processes()
        finalized = {r.key for r in records}
        records.extend(r for r in open_peeks if r.key not in finalized)
        return _in_key_order(records)

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only what changed since ``cursor``.

        Writes what is finalized exactly like :meth:`snapshot`, but instead
        of reading the whole ``processes`` table back, reads only rows past
        the rowid high-water mark -- so the cost of a mid-campaign pull is
        proportional to the records finalized since the last pull (plus the
        handful of still-open groups), not to the campaign so far.  Records
        finalized through the first-close-wins insert are immutable, which
        is what makes the rowid cursor a correct delta stream (see
        :meth:`MessageStore.load_processes_since`).
        """
        open_records = self._sync()
        new_records, cursor = self.store.load_processes_since(cursor)
        return ProcessDelta(new_records=tuple(new_records),
                            open_records=tuple(open_records), cursor=cursor)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: close every open group, return all records.

        Like :meth:`snapshot`, read back from the store and returned in
        canonical process-key order; calling it again simply re-reads the
        store.
        """
        self.receiver.flush()
        self.consolidator.close_all()
        return _in_key_order(self.store.load_processes())

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    @property
    def decode_errors(self) -> int:
        """Undecodable datagrams."""
        return self.receiver.decode_errors

    @property
    def messages_received(self) -> int:
        """Messages accepted."""
        return self.receiver.messages_received

    @property
    def peak_open_processes(self) -> int:
        """High-water mark of simultaneously open process groups."""
        return self.consolidator.peak_open_processes

    @property
    def quarantined(self) -> int:
        """Undecodable datagrams captured in the quarantine ring (0 when off)."""
        return len(self.quarantine) if self.quarantine is not None else 0

    def statistics(self) -> dict[str, int]:
        """The receiver's and the consolidator's counters, plus the ring's."""
        return {"quarantined": self.quarantined,
                "decode_errors": self.receiver.decode_errors,
                "messages_received": self.receiver.messages_received,
                **self.consolidator.statistics()}
