"""The ingest object: datagrams in, consolidated process records out.

The paper's server side is one UDP receiver feeding one consolidation step;
:class:`IncrementalConsolidator` is both.  Its
:meth:`~IncrementalConsolidator.handle_datagram` is the only place a
datagram is decoded for ingest: it counts what arrives, keeps the raw bytes
of what does not decode in a bounded ring (:class:`DatagramQuarantine`) so
corruption on a production link leaves a forensic trail instead of only a
counter, and buffers the rest in batches.  Each batch is written to the raw
``messages`` table first when ``persist_raw`` is set (the paper's raw
store), then consumed **as it arrives**: one open group per process key, a
record finalized the moment the process's ``PROCEND`` destructor message
confirms that every expected content type made it through, lossy
stragglers closed by an epoch/idle rule, and finished records flushed to
the store in batches through the first-close-wins insert
(:meth:`MessageStore.insert_processes_if_absent`) -- so a long-running
deployment answers analysis queries mid-campaign without ever
materialising the raw message table.  The idle clock ticks once per batch.

What a process is expected to send depends on its category, which is
read from its whole PROCINFO group when the ``PROCEND`` arrives -- never from
one chunk of it, since a chunk boundary can fall inside ``category=...``.
A process whose expected types are not all complete by then keeps its group
open for one more epoch (the grace a reordering transport needs) instead of
closing on ``PROCEND``.

Equivalence with a post-pass
----------------------------
Records are assembled by :func:`repro.ingest.records.build_process_record`,
pinned equal to the post-pass oracle's own builder over any message groups,
so the only way streaming output could diverge is by closing a group
before all of its messages arrived.  Three properties rule that out on the
transports this repository ships:

* every channel delivers the constructor burst of one process contiguously
  and in order, and ``PROCEND`` is by construction the last message of a key,
  so finalizing on ``PROCEND`` can never cut a burst short;
* the idle rule only closes groups untouched for ``idle_epochs`` whole
  epochs, and an epoch boundary (one batch) can never fall twice inside a
  single contiguous burst;
* :meth:`~IncrementalConsolidator.finalize` closes every still-open group at
  end of stream -- exactly the data a post-pass would have grouped.

``PROCEND`` never contributes content to a record, so a late destructor
arriving after an idle close is dropped harmlessly (counted in
``late_messages``); any other late message would mean a reordering transport
and is counted rather than silently merged.  The closed-key dedup set is
itself evicted on the same epoch clock -- a message so late that its key was
evicted resurrects a content-free group whose flush the first-close-wins
insert ignores, so the real record survives either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.collector.records import InfoType, parse_keyvalues
from repro.db.store import MessageStore, ProcessKey, ProcessRecord
from repro.ingest.records import (
    GROUP_KEYS,
    PROCINFO_KEY,
    GroupKey,
    MessageGroup,
    build_process_record,
    expected_keys_for,
)
from repro.transport.channel import Channel
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError

_PROCEND = InfoType.PROCEND


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
    the most recent evidence is always available.
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

    def entries(self) -> "list[QuarantinedDatagram]":
        """The retained datagrams, oldest first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class ProcessDelta:
    """One pull of the live record stream: what changed since the last cursor.

    ``new_records`` are the records finalized since the previous cursor, in
    store rowid (finalization) order -- each record appears in exactly one
    delta, so consumers can fold them into accumulators without rescanning.
    When the cursor is the one the previous pull returned, they are the very
    objects the consolidator built and wrote, not copies read back from the
    table (:meth:`~repro.db.store.MessageStore.load_processes_since`); like
    every record, they are values nobody mutates.
    ``open_records`` is the *current* non-destructive peek at still-open
    process groups; it is transient (superseded by the next delta; the same
    tuple again while no message has arrived) and may include a key that is
    already finalized when a very late message resurrected it -- consumers
    overlay it on top of their committed state, dropping keys they have
    already seen, exactly as :meth:`IncrementalConsolidator.snapshot` does.
    ``cursor`` is the new high-water mark to pass to the next
    :meth:`IncrementalConsolidator.snapshot_delta` call.
    """

    new_records: tuple[ProcessRecord, ...]
    open_records: tuple[ProcessRecord, ...]
    cursor: int


@dataclass
class _OpenProcess:
    """The still-accumulating message groups of one process key."""

    groups: dict[GroupKey, MessageGroup] = field(default_factory=dict)
    last_epoch: int = 0
    ended: bool = False     #: PROCEND seen -- nothing more is coming (ordered transport)


def _in_key_order(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Sort records by the process header key (the canonical record order)."""
    return sorted(records, key=lambda r: r.key)


@dataclass
class IncrementalConsolidator:
    """Decode datagrams and consolidate them into records as they arrive.

    Parameters
    ----------
    store:
        Destination for finalized records (and raw messages with
        ``persist_raw``).
    batch_size:
        Accepted messages are buffered and delivered -- raw-persisted, then
        fed to the open groups -- in batches of this size; every delivered
        batch is one epoch of the idle clock.
    flush_batch_size:
        Finalized records are buffered and inserted in batches of this size.
    idle_epochs:
        An open group untouched for this many whole epochs is closed even
        without a ``PROCEND`` (the destructor datagram was lost).  Must be at
        least 2: an epoch boundary can fall *inside* a contiguous burst, so a
        group touched in the immediately preceding epoch may still be
        mid-burst -- only two whole untouched epochs prove the burst is over.
    persist_raw:
        Also write every accepted message to the raw ``messages`` table.
    quarantine_capacity:
        Size of the ring keeping the most recent undecodable datagrams
        (:class:`DatagramQuarantine`); 0 disables it.
    """

    store: MessageStore
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    quarantine_capacity: int = 256

    quarantine: DatagramQuarantine | None = field(init=False, default=None)
    # counters
    messages_received: int = field(init=False, default=0)  #: datagrams that decoded
    decode_errors: int = field(init=False, default=0)
    messages_consumed: int = field(init=False, default=0)
    records_built: int = field(init=False, default=0)
    incomplete_records: int = field(init=False, default=0)
    #: closed by PROCEND with all expected types complete
    early_finalized: int = field(init=False, default=0)
    #: closed by the epoch/idle rule (lossy stragglers)
    idle_closed: int = field(init=False, default=0)
    #: closed by the end-of-stream finalize
    final_closed: int = field(init=False, default=0)
    #: messages for already-closed keys (dropped, counted)
    late_messages: int = field(init=False, default=0)
    peak_open_processes: int = field(init=False, default=0)

    #: accepted messages not yet fed; the first ``_persisted`` of them are
    #: already in the raw table (a record write raised while feeding them)
    _batch: list[UDPMessage] = field(init=False, default_factory=list)
    _persisted: int = field(init=False, default=0)
    _epoch: int = field(init=False, default=0)
    _open: dict[ProcessKey, _OpenProcess] = field(init=False, default_factory=dict)
    #: Recently closed keys, for fast late-message detection.  Entries are
    #: evicted ``idle_epochs`` epochs after the close, so memory stays
    #: bounded by recent traffic, not campaign size; a message arriving
    #: even later resurrects a (content-free) group whose flush the store's
    #: first-close-wins insert ignores.
    _closed: set[ProcessKey] = field(init=False, default_factory=set)
    _closed_fifo: deque = field(init=False, default_factory=deque)  # (close_epoch, key)
    _pending: list[ProcessRecord] = field(init=False, default_factory=list)
    #: :meth:`_peek_open`'s last answer, beside the two counters that change
    #: whenever an open group does (a message consumed, a record built).
    _peeked: tuple[tuple[int, int], tuple[ProcessRecord, ...]] | None = field(
        init=False, default=None)

    def __post_init__(self) -> None:
        if self.idle_epochs < 2:
            raise TransportError(
                "idle_epochs must be >= 2: one epoch of silence cannot be told"
                " apart from a burst straddling a batch boundary")
        if self.quarantine_capacity:
            self.quarantine = DatagramQuarantine(capacity=self.quarantine_capacity)

    def attach(self, channel: Channel) -> None:
        """Subscribe to a channel so every delivered datagram is ingested."""
        channel.subscribe(self.handle_datagram)

    # ------------------------------------------------------------------ #
    # datagrams
    # ------------------------------------------------------------------ #
    def handle_datagram(self, datagram: bytes) -> bool:
        """Decode one datagram and buffer it for delivery; ``False`` if it
        did not decode.

        Undecodable datagrams are counted (and, with a quarantine, captured
        with their raw bytes and the failure reason) -- never raised.
        """
        try:
            message = UDPMessage.decode(datagram)
        except TransportError as error:
            self.decode_errors += 1
            if self.quarantine is not None:
                self.quarantine.capture(datagram, str(error))
            return False
        self.messages_received += 1
        batch = self._batch
        batch.append(message)
        if len(batch) >= self.batch_size:
            self._deliver()
        return True

    def _deliver(self) -> None:
        """Raw-persist (``persist_raw``), then feed, the buffered messages,
        and tick the idle clock.

        Each accepted message is fed once and raw-persisted at most once,
        even when a store write raises on the way: a raw insert that raises
        leaves the batch buffered as it was, and a record flush that raises
        inside :meth:`feed` leaves buffered only the messages not yet fed,
        marked as already persisted.
        """
        batch = self._batch
        if not batch:
            return
        if self.persist_raw and len(batch) > self._persisted:
            self.store.insert_many(batch[self._persisted:])
        unfed = iter(batch)
        try:
            for message in unfed:
                self.feed(message)
        finally:
            self._batch = list(unfed)
            self._persisted = len(self._batch)
        self.advance_epoch()

    # ------------------------------------------------------------------ #
    # grouping and closing
    # ------------------------------------------------------------------ #
    def feed(self, message: UDPMessage) -> None:
        """Consume one decoded message."""
        self.messages_consumed += 1
        key: ProcessKey = (message.jobid, message.stepid, message.pid,
                           message.path_hash, message.host, message.time)
        # A key is open or recently closed, never both: only a message that
        # opens a group pays for the dedup lookup.
        open_process = self._open.get(key)
        if open_process is None:
            if key in self._closed:
                self.late_messages += 1
                return
            open_process = self._open[key] = _OpenProcess(last_epoch=self._epoch)
            self.peak_open_processes = max(self.peak_open_processes, len(self._open))
        open_process.last_epoch = self._epoch

        info_type = message.info_type
        group_key = GROUP_KEYS[message.layer, info_type]
        group = open_process.groups.get(group_key)
        if group is None:
            group = open_process.groups[group_key] = MessageGroup()
        group.add(message.chunk_index, message.chunk_total, message.content)

        if info_type is _PROCEND:
            open_process.ended = True
            if self._expected_complete(open_process):
                self._close(key, open_process, reason="procend")

    def advance_epoch(self) -> int:
        """Advance the idle clock and close stale groups; returns how many closed.

        Ticked after every delivered batch.  Closes groups that either saw
        their ``PROCEND`` but are missing content (lost datagrams -- one
        epoch of grace covers reordering transports) or have been idle for
        ``idle_epochs`` whole epochs (the ``PROCEND`` itself was lost).
        """
        self._epoch += 1
        while self._closed_fifo and self._epoch - self._closed_fifo[0][0] >= self.idle_epochs:
            _, evicted = self._closed_fifo.popleft()
            self._closed.discard(evicted)
        stale = [
            (key, open_process)
            for key, open_process in self._open.items()
            if (open_process.ended and self._epoch - open_process.last_epoch >= 1)
            or self._epoch - open_process.last_epoch >= self.idle_epochs
        ]
        for key, open_process in stale:
            self._close(key, open_process, reason="idle")
        return len(stale)

    def _expected_complete(self, open_process: _OpenProcess) -> bool:
        """True when every expected content type arrived with all its chunks.

        The category that decides what is expected is read from the whole
        PROCINFO group, never from one chunk of it: ``category=...`` may
        straddle a chunk boundary, and a process read as uncategorised
        would close on PROCEND without its grace epoch.
        """
        groups = open_process.groups
        if not all(group.all_chunks_present for group in groups.values()):
            return False
        procinfo = groups.get(PROCINFO_KEY)
        category = ("" if procinfo is None
                    else parse_keyvalues(procinfo.reassemble()[0]).get("category", ""))
        return all(expected in groups for expected in expected_keys_for(category))

    def _close(self, key: ProcessKey, open_process: _OpenProcess, *, reason: str) -> None:
        record = build_process_record(key, open_process.groups)
        self.records_built += 1
        if record.incomplete:
            self.incomplete_records += 1
        if reason == "procend":
            self.early_finalized += 1
        elif reason == "idle":
            self.idle_closed += 1
        else:
            self.final_closed += 1
        self._pending.append(record)
        self._closed.add(key)
        self._closed_fifo.append((self._epoch, key))
        del self._open[key]
        if len(self._pending) >= self.flush_batch_size:
            self._flush()

    def _flush(self) -> None:
        """Write all finalized-but-unwritten records.

        First close wins: a key resurrected by a very late message (after
        its dedup entry was evicted) produces a content-free record whose
        insert the store ignores, so the real row is never overwritten.  A
        write that raises leaves the records pending for the next flush.
        """
        if self._pending:
            self.store.insert_processes_if_absent(self._pending)
            self._pending.clear()

    def _peek_open(self) -> tuple[ProcessRecord, ...]:
        """Non-destructive records for every still-open group, in key order.

        Built through the same assembly function as finalized records, but
        neither closed nor written -- the groups keep accumulating.  While no
        message has been consumed and no record built since the last peek,
        the open groups are what that peek saw, and its answer is returned
        again without building a record.
        """
        state = (self.messages_consumed, self.records_built)
        if self._peeked is None or self._peeked[0] != state:
            self._peeked = (state, tuple(
                build_process_record(key, open_process.groups)
                for key, open_process in sorted(self._open.items())))
        return self._peeked[1]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[ProcessRecord]:
        """Live view: write what is finalized, then read the store once.

        Finalized records come back from the ``processes`` table (memory
        holds only in-flight groups); still-open groups are peeked
        non-destructively.  Returned in canonical process-key order.
        """
        self._deliver()
        self._flush()
        open_peeks = self._peek_open()
        records = self.store.load_processes()
        finalized = {r.key for r in records}
        records.extend(r for r in open_peeks if r.key not in finalized)
        return _in_key_order(records)

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only what changed since ``cursor``.

        Writes what is finalized exactly like :meth:`snapshot`, but reads
        nothing back for a reader that keeps pulling: the records written
        since its last pull are handed over as built (any other cursor reads
        the rows past it) -- so a mid-campaign pull costs O(records
        finalized since the last pull), each built and written once, plus
        the peek at the handful of still-open groups, which is not rebuilt
        while no datagram has arrived.  Records finalized through the
        first-close-wins insert are immutable, which is what makes the rowid
        cursor a correct delta stream (see
        :meth:`MessageStore.load_processes_since`).
        """
        self._deliver()
        self._flush()
        open_records = self._peek_open()
        new_records, cursor = self.store.load_processes_since(cursor)
        return ProcessDelta(new_records=tuple(new_records),
                            open_records=open_records, cursor=cursor)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: close every open group, return all records.

        Like :meth:`snapshot`, read back from the store and returned in
        canonical process-key order; calling it again simply re-reads the
        store.
        """
        self._deliver()
        for key in sorted(self._open):
            self._close(key, self._open[key], reason="final")
        self._flush()
        return _in_key_order(self.store.load_processes())

    @property
    def open_processes(self) -> int:
        """Process groups currently held open."""
        return len(self._open)

    @property
    def quarantined(self) -> int:
        """Undecodable datagrams captured in the quarantine ring (0 when off)."""
        return len(self.quarantine) if self.quarantine is not None else 0

    def statistics(self) -> dict[str, int]:
        """Operational counters, for merging and reporting."""
        return {
            "quarantined": self.quarantined,
            "decode_errors": self.decode_errors,
            "messages_received": self.messages_received,
            "messages_consumed": self.messages_consumed,
            "records_built": self.records_built,
            "incomplete_records": self.incomplete_records,
            "early_finalized": self.early_finalized,
            "idle_closed": self.idle_closed,
            "final_closed": self.final_closed,
            "late_messages": self.late_messages,
            "open_processes": self.open_processes,
            "peak_open_processes": self.peak_open_processes,
        }
