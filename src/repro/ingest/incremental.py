"""The ingest object: datagrams in, consolidated process records out.

The paper's server side is one UDP receiver feeding one consolidation step;
:class:`IncrementalConsolidator` is both.  Its
:meth:`~IncrementalConsolidator.handle_datagram` is the only place a
datagram is decoded for ingest: it counts what arrives, keeps the raw bytes
of what does not decode in a bounded ring (:class:`DatagramQuarantine`) so
corruption on a production link leaves a forensic trail instead of only a
counter, and buffers the rest in batches.  Each batch is written to the raw
``messages`` table first when ``persist_raw`` is set (the paper's raw
store), then consumed **as it arrives**: an open process per key holds its
raw rows in a list (filing a datagram is one lookup and one append), a
record is finalized the moment the process's ``PROCEND`` destructor message
shows it complete, lossy stragglers are closed by an epoch/idle rule, and
finished records are flushed to the store in batches through the
first-close-wins insert (:meth:`MessageStore.insert_processes_if_absent`)
-- so a long-running deployment answers analysis queries mid-campaign
without ever materialising the raw message table.  The idle clock ticks
once per batch.

A process is walked once, when it closes.  At ``PROCEND`` its record is
built from the rows (:func:`~repro.ingest.records.build_process_record`),
and that build is the close check: the process closes iff the record is
not incomplete -- every content type its category expects arrived whole,
the category read from the whole PROCINFO, never from one chunk of it --
and every other pair filed (``PROCEND`` itself) has all of its announced
chunks too.  The record just built is the one written.  A process that
fails the check stays open for one more epoch (the grace a reordering
transport needs) and is built again when that closes it.

Equivalence with a post-pass
----------------------------
Records are assembled by :func:`repro.ingest.records.build_process_record`,
pinned equal to the post-pass oracle's own builder over any rows,
so the only way streaming output could diverge is by closing a process
before all of its messages arrived.  Three properties rule that out on the
transports this repository ships:

* every channel delivers the constructor burst of one process contiguously
  and in order, and ``PROCEND`` is by construction the last message of a key,
  so finalizing on ``PROCEND`` can never cut a burst short;
* the idle rule only closes processes untouched for :data:`IDLE_EPOCHS` whole
  epochs, and an epoch boundary (one batch) can never fall twice inside a
  single contiguous burst;
* :meth:`~IncrementalConsolidator.finalize` closes every still-open process
  at end of stream -- exactly the data a post-pass would have grouped.

``PROCEND`` never contributes content to a record, so a late destructor
arriving after an idle close is dropped harmlessly (counted in
``late_messages``); any other late message would mean a reordering transport
and is counted rather than silently merged.  The closed-key dedup set is
itself evicted on the same epoch clock -- a message so late that its key was
evicted resurrects a content-free process whose flush the first-close-wins
insert ignores, so the real record survives either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.collector.records import InfoType
from repro.db.store import MessageStore, ProcessKey, ProcessRecord, process_key
from repro.ingest.records import GROUP_KEYS, build_process_record
from repro.transport.channel import Channel
from repro.transport.messages import PROTOCOL_TAG, SEPARATOR, MessageRow, UDPMessage
from repro.util.errors import TransportError

_PROCEND = InfoType.PROCEND.value
#: Every ``(LAYER, TYPE)`` wire pair that decodes, to itself as
#: ``GROUP_KEYS`` holds it.  One lookup validates a datagram's pair and swaps
#: its two fresh strings for these, whose hashes are computed once.
_WIRE_KINDS = {key: key for key in GROUP_KEYS.values()}
#: Undecodable datagrams the ingest object keeps for forensics.
QUARANTINE_CAPACITY = 256
#: Accepted messages are buffered and delivered -- raw-persisted, then filed
#: under their open processes -- in batches of this size; every delivered
#: batch is one epoch of the idle clock.
BATCH_SIZE = 500
#: Finalized records are buffered and inserted in batches of this size.
FLUSH_BATCH_SIZE = 64
#: An open process untouched for this many whole epochs is closed even
#: without a ``PROCEND`` (the destructor datagram was lost).  At least 2: an
#: epoch boundary can fall *inside* a contiguous burst, so a process touched
#: in the immediately preceding epoch may still be mid-burst -- only two
#: whole untouched epochs prove the burst is over.
IDLE_EPOCHS = 2


@dataclass(frozen=True)
class QuarantinedDatagram:
    """One undecodable datagram, kept verbatim for forensics."""

    datagram: bytes  #: the raw bytes exactly as they arrived
    reason: str      #: the decode failure (the TransportError message)


@dataclass
class DatagramQuarantine:
    """A bounded ring of corrupt datagrams and why each failed to decode.

    ``quarantined`` counts every capture ever made; the ring itself holds at
    most :data:`QUARANTINE_CAPACITY` entries (oldest evicted first, counted
    in ``evicted``), so a sustained corruption storm cannot grow memory
    without bound while the most recent evidence is always available.
    """

    quarantined: int = field(init=False, default=0)
    evicted: int = field(init=False, default=0)
    _entries: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._entries = deque(maxlen=QUARANTINE_CAPACITY)

    def capture(self, datagram: bytes, reason: str) -> None:
        """Keep one corrupt datagram (evicting the oldest beyond capacity)."""
        self.quarantined += 1
        if len(self._entries) == self._entries.maxlen:
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
    processes; it is transient (superseded by the next delta; the same
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


@dataclass(slots=True)
class _OpenProcess:
    """The raw rows of one still-open process key, in arrival order."""

    rows: list[MessageRow] = field(default_factory=list)
    last_epoch: int = 0
    ended: bool = False     #: PROCEND seen -- nothing more is coming (ordered transport)


def _in_key_order(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Sort records by the process header key (the canonical record order)."""
    return sorted(records, key=process_key)


@dataclass
class IncrementalConsolidator:
    """Decode datagrams and consolidate them into records as they arrive.

    Parameters
    ----------
    store:
        Destination for finalized records (and raw messages with
        ``persist_raw``).
    persist_raw:
        Also write every accepted message to the raw ``messages`` table.

    Messages are delivered in batches of :data:`BATCH_SIZE`, records are
    written in batches of :data:`FLUSH_BATCH_SIZE`, and a process idle for
    :data:`IDLE_EPOCHS` whole epochs is closed; each is read when it is used.
    Undecodable datagrams are kept in a :class:`DatagramQuarantine` of
    :data:`QUARANTINE_CAPACITY` entries.
    """

    store: MessageStore
    persist_raw: bool = False

    quarantine: DatagramQuarantine = field(init=False, default_factory=DatagramQuarantine)
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

    #: accepted messages, as raw rows, not yet fed; the first ``_persisted``
    #: of them are already in the raw table (a record write raised while
    #: feeding them)
    _batch: list[MessageRow] = field(init=False, default_factory=list)
    _persisted: int = field(init=False, default=0)
    _epoch: int = field(init=False, default=0)
    _open: dict[ProcessKey, _OpenProcess] = field(init=False, default_factory=dict)
    #: Recently closed keys, for fast late-message detection.  Entries are
    #: evicted :data:`IDLE_EPOCHS` epochs after the close, so memory stays
    #: bounded by recent traffic, not campaign size; a message arriving
    #: even later resurrects a (content-free) process whose flush the store's
    #: first-close-wins insert ignores.
    _closed: set[ProcessKey] = field(init=False, default_factory=set)
    _closed_fifo: deque = field(init=False, default_factory=deque)  # (close_epoch, key)
    _pending: list[ProcessRecord] = field(init=False, default_factory=list)
    #: Every record a flush wrote in full, kept for :meth:`finalize` to hand
    #: back; ``None`` once a flush was partial (or ``finalize`` handed them
    #: back), after which it reads the table.  ``_written_mark`` is the
    #: rowid of the last of them.
    _written: list[ProcessRecord] | None = field(init=False, default_factory=list)
    _written_mark: int | None = field(init=False, default=None)
    #: :meth:`_peek_open`'s last answer, beside the two counters that change
    #: whenever an open process does (a message consumed, a record closed).
    _peeked: tuple[tuple[int, int], tuple[ProcessRecord, ...]] | None = field(
        init=False, default=None)

    def attach(self, channel: Channel) -> None:
        """Subscribe to a channel so every delivered datagram is ingested."""
        channel.subscribe(self.handle_datagram)

    # ------------------------------------------------------------------ #
    # datagrams
    # ------------------------------------------------------------------ #
    def handle_datagram(self, datagram: bytes) -> bool:
        """Decode one datagram into a raw row and buffer it for delivery;
        ``False`` if it did not decode.

        Accepts exactly what :meth:`UDPMessage.decode` accepts, decoding
        straight into the ``messages`` row shape: one ``split``, the same four
        ``int()`` fields, one lookup of the ``(LAYER, TYPE)`` wire pair.
        Undecodable datagrams are counted and quarantined, with their raw
        bytes and :meth:`UDPMessage.decode`'s own failure reason -- never
        raised.
        """
        try:
            (tag, jobid, stepid, pid, path_hash, host, time, layer, info_type,
             chunk_index, chunk_total, content) = datagram.decode("utf-8").split(SEPARATOR, 11)
            layer, info_type = _WIRE_KINDS[layer, info_type]
            row = (jobid, stepid, int(pid), path_hash, host, int(time), layer, info_type,
                   int(chunk_index), int(chunk_total), content)
        except (ValueError, KeyError):  # bad UTF-8, a field short, an unknown kind, not an int
            return self._reject(datagram)
        if tag != PROTOCOL_TAG:
            return self._reject(datagram)
        self.messages_received += 1
        batch = self._batch
        batch.append(row)
        if len(batch) >= BATCH_SIZE:
            self._deliver()
        return True

    def _reject(self, datagram: bytes) -> bool:
        """Count and quarantine a datagram that did not decode.

        The reason kept is :meth:`UDPMessage.decode`'s error text: the format
        words it, so the quarantine reads the same whichever decoder refused.
        """
        self.decode_errors += 1
        try:
            UDPMessage.decode(datagram)
        except TransportError as error:
            self.quarantine.capture(datagram, str(error))
        return False

    def _deliver(self) -> None:
        """Raw-persist (``persist_raw``), then file, the buffered messages,
        and tick the idle clock.

        Filing a row is one lookup of its process key and one append to
        that process's rows; a ``PROCEND`` builds the record, which closes
        the process when it shows it complete.  A key is open or recently
        closed, never both, so only a row that opens a process pays for the
        dedup lookup.  Each accepted message is filed once and raw-persisted
        at most once, even when a store write raises on the way: a raw
        insert that raises leaves the batch buffered as it was, and a record
        flush that raises while filing leaves buffered only the messages not
        yet filed, marked as already persisted.
        """
        batch = self._batch
        if not batch:
            return
        if self.persist_raw and len(batch) > self._persisted:
            self.store.insert_rows(batch[self._persisted:])
        open_processes, closed, epoch = self._open, self._closed, self._epoch
        unfed = iter(batch)
        try:
            for row in unfed:
                key: ProcessKey = row[:6]
                process = open_processes.get(key)
                if process is None:
                    if key in closed:
                        self.late_messages += 1
                        continue
                    process = open_processes[key] = _OpenProcess()
                    if len(open_processes) > self.peak_open_processes:
                        self.peak_open_processes = len(open_processes)
                process.rows.append(row)
                process.last_epoch = epoch
                if row[7] == _PROCEND:
                    process.ended = True
                    record, whole = build_process_record(key, process.rows)
                    if whole and not record.incomplete:
                        self._close(key, record, reason="procend")
        finally:
            self._batch = list(unfed)
            self._persisted = len(self._batch)
            self.messages_consumed += len(batch) - len(self._batch)
        self.advance_epoch()

    # ------------------------------------------------------------------ #
    # closing
    # ------------------------------------------------------------------ #
    def advance_epoch(self) -> int:
        """Advance the idle clock and close stale processes; returns how many
        closed.

        Ticked after every delivered batch.  Closes processes that either saw
        their ``PROCEND`` but are missing content (lost datagrams -- one
        epoch of grace covers reordering transports) or have been idle for
        :data:`IDLE_EPOCHS` whole epochs (the ``PROCEND`` itself was lost).
        """
        self._epoch += 1
        while self._closed_fifo and self._epoch - self._closed_fifo[0][0] >= IDLE_EPOCHS:
            _, evicted = self._closed_fifo.popleft()
            self._closed.discard(evicted)
        stale = [
            (key, open_process)
            for key, open_process in self._open.items()
            if (open_process.ended and self._epoch - open_process.last_epoch >= 1)
            or self._epoch - open_process.last_epoch >= IDLE_EPOCHS
        ]
        for key, open_process in stale:
            self._close(key, build_process_record(key, open_process.rows)[0], reason="idle")
        return len(stale)

    def _close(self, key: ProcessKey, record: ProcessRecord, *, reason: str) -> None:
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
        if len(self._pending) >= FLUSH_BATCH_SIZE:
            self._flush()

    def _flush(self) -> None:
        """Write all finalized-but-unwritten records.

        First close wins: a key resurrected by a very late message (after
        its dedup entry was evicted) produces a content-free record whose
        insert the store ignores, so the real row is never overwritten.  A
        write that raises leaves the records pending for the next flush.
        A batch written in full is kept for :meth:`finalize`; one that was not
        makes it read the table.
        """
        pending = self._pending
        if pending:
            written = self.store.insert_processes_if_absent(pending)
            if self._written is not None:
                if written == len(pending):
                    self._written.extend(pending)
                    self._written_mark = self.store.written_mark
                else:
                    self._written = None
            pending.clear()

    def _peek_open(self) -> tuple[ProcessRecord, ...]:
        """Non-destructive records for every still-open process, in key order.

        Built through the same assembly function as finalized records, but
        neither closed nor written -- the processes keep accumulating.  While
        no message has been consumed and no record closed since the last
        peek, the open processes are what that peek saw, and its answer is
        returned again without building a record.
        """
        state = (self.messages_consumed, self.records_built)
        if self._peeked is None or self._peeked[0] != state:
            self._peeked = (state, tuple(
                build_process_record(key, open_process.rows)[0]
                for key, open_process in sorted(self._open.items())))
        return self._peeked[1]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[ProcessRecord]:
        """Live view: write what is finalized, then read the store once.

        Finalized records come back from the ``processes`` table (memory
        holds only in-flight processes); still-open processes are peeked
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
        the peek at the handful of still-open processes, which is not rebuilt
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
        """End of stream: close every open process, return all records, in
        canonical process-key order.

        The records are the very objects this consolidator built and wrote,
        handed back instead of read back -- unless one query
        (:meth:`MessageStore.process_extent`) shows the table holds rows it
        did not write in full: a pre-populated store, another writer, or a
        flush whose insert ignored a row.  Then the table is read, as
        :meth:`snapshot` reads it.  The consolidator lets go of the records
        here, so calling it again reads the table.
        """
        self._deliver()
        for key in sorted(self._open):
            self._close(key, build_process_record(key, self._open[key].rows)[0],
                        reason="final")
        self._flush()
        records, self._written = self._written, None
        if (records is None
                or self.store.process_extent() != (len(records), self._written_mark)):
            records = self.store.load_processes()
        return _in_key_order(records)

    @property
    def open_processes(self) -> int:
        """Processes currently held open."""
        return len(self._open)

    @property
    def quarantined(self) -> int:
        """Undecodable datagrams held in the quarantine ring."""
        return len(self.quarantine)

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
