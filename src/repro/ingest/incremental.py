"""Incremental (streaming) consolidation of SIREN messages.

A post-pass would re-read and re-group the *entire* messages table after a
campaign ends.  The :class:`IncrementalConsolidator` instead consumes
messages **as they arrive**:
it keeps one open group per process key, finalizes a record the moment the
process's ``PROCEND`` destructor message confirms that every expected content
type made it through, closes lossy stragglers by an epoch/idle rule, and
flushes finished records to the store in batches through the
first-close-wins insert (:meth:`MessageStore.insert_processes_if_absent`)
-- so a long-running deployment can answer analysis queries mid-campaign
without ever materialising the raw message table.

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
  epochs, and an epoch boundary (one receiver flush) can never fall twice
  inside a single contiguous burst;
* :meth:`finalize` closes every still-open group at end of stream -- exactly
  the data a post-pass would have grouped.

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
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError

_PROCEND = InfoType.PROCEND


@dataclass
class _OpenProcess:
    """The still-accumulating message groups of one process key."""

    groups: dict[GroupKey, MessageGroup] = field(default_factory=dict)
    last_epoch: int = 0
    ended: bool = False     #: PROCEND seen -- nothing more is coming (ordered transport)


@dataclass
class IncrementalConsolidator:
    """Consolidate messages as they arrive; a drop-in sink for the receiver.

    Parameters
    ----------
    store:
        Destination for finalized records (via the upsert primitive).
    flush_batch_size:
        Finalized records are buffered and upserted in batches of this size.
    idle_epochs:
        An open group untouched for this many whole epochs is closed even
        without a ``PROCEND`` (the destructor datagram was lost).  Epochs are
        advanced by the receiver on every flush, so this is measured in
        receiver batches, not wall time.  Must be at least 2: an epoch
        boundary can fall *inside* a contiguous burst, so a group touched in
        the immediately preceding epoch may still be mid-burst -- only two
        whole untouched epochs prove the burst is over.
    """

    store: MessageStore
    flush_batch_size: int = 64
    idle_epochs: int = 2

    # counters
    messages_consumed: int = 0
    records_built: int = 0
    incomplete_records: int = 0
    early_finalized: int = 0    #: closed by PROCEND with all expected types complete
    idle_closed: int = 0        #: closed by the epoch/idle rule (lossy stragglers)
    final_closed: int = 0       #: closed by the end-of-stream finalize
    late_messages: int = 0      #: messages for already-closed keys (dropped, counted)
    peak_open_processes: int = 0

    _epoch: int = 0
    _open: dict[ProcessKey, _OpenProcess] = field(default_factory=dict)
    #: Recently closed keys, for fast late-message detection.  Entries are
    #: evicted ``idle_epochs`` epochs after the close, so memory stays
    #: bounded by recent traffic, not campaign size; a message arriving
    #: even later resurrects a (content-free) group whose flush the store's
    #: first-close-wins insert ignores.
    _closed: set[ProcessKey] = field(default_factory=set)
    _closed_fifo: deque = field(default_factory=deque)  # (close_epoch, key)
    _pending: list[ProcessRecord] = field(default_factory=list)
    #: :meth:`peek_open`'s last answer, beside the two counters that change
    #: whenever an open group does (a message consumed, a record built).
    _peeked: tuple[tuple[int, int], tuple[ProcessRecord, ...]] | None = None

    def __post_init__(self) -> None:
        if self.idle_epochs < 2:
            raise TransportError(
                "idle_epochs must be >= 2: one epoch of silence cannot be told"
                " apart from a burst straddling a receiver batch boundary")

    # ------------------------------------------------------------------ #
    # feeding
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

    def feed_many(self, messages: list[UDPMessage]) -> None:
        """Consume a batch of decoded messages (the receiver's flush path)."""
        for message in messages:
            self.feed(message)

    # ------------------------------------------------------------------ #
    # epoch / close logic
    # ------------------------------------------------------------------ #
    def advance_epoch(self) -> int:
        """Advance the idle clock and close stale groups; returns how many closed.

        Called by the receiver after every flush.  Closes groups that either
        saw their ``PROCEND`` but are missing content (lost datagrams -- one
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
            self.flush()

    # ------------------------------------------------------------------ #
    # flushing / results
    # ------------------------------------------------------------------ #
    @property
    def open_processes(self) -> int:
        """Process groups currently held open."""
        return len(self._open)

    def flush(self) -> int:
        """Write all finalized-but-unwritten records; returns how many.

        First close wins: a key resurrected by a very late message (after
        its dedup entry was evicted) produces a content-free record whose
        insert the store ignores, so the real row is never overwritten.
        """
        if not self._pending:
            return 0
        written = self.store.insert_processes_if_absent(self._pending)
        self._pending.clear()
        return written

    def peek_open(self) -> tuple[ProcessRecord, ...]:
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

    def close_all(self) -> int:
        """Close every open group and flush; returns how many were closed.

        The ingest front's end-of-stream primitive (it reads the record set
        back from the store itself, in canonical key order).
        """
        stale = sorted(self._open)
        for key in stale:
            self._close(key, self._open[key], reason="final")
        self.flush()
        return len(stale)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: close every open group, flush, return all records.

        The records are read back from the store, so this assumes the
        consolidator owns the store's ``processes`` table.
        """
        self.close_all()
        return self.store.load_processes()

    def statistics(self) -> dict[str, int]:
        """Operational counters, for merging and reporting."""
        return {
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
