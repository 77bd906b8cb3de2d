"""Sharded streaming ingest: N receiver + consolidator workers behind one front.

The paper's receiver is a single UDP server; at the traffic the roadmap aims
for, one consolidator becomes the bottleneck long before the network does.
:class:`ShardedIngest` partitions the datagram stream across ``shards``
independent :class:`~repro.transport.receiver.MessageReceiver` +
:class:`~repro.ingest.incremental.IncrementalConsolidator` pairs, keyed by a
stable FNV-1a hash of the process header -- every message of one process
lands on the same shard, so each shard consolidates a disjoint set of
process keys and the shard outputs merely concatenate.

Two worker backends (``workers=``):

* ``"thread"`` -- all shards live in this interpreter.  The front decodes
  each datagram exactly once (counting decode errors centrally) and routes
  the decoded message via the receivers' pre-decoded fast path, so sharding
  adds routing cost but no second decode.  Cheap and simple, but the shards
  share one GIL: with CPU-bound consolidation this mode cannot beat a single
  streaming consolidator.
* ``"process"`` -- each shard is a real OS process
  (:class:`~repro.ingest.procworkers.ProcessShardPool`) owning its own store
  and consolidator.  The front routes **raw datagram bytes** by hashing the
  header slice directly (:func:`shard_of_datagram` -- no decode at all on
  the fast path) and merges finalized records back into the shared store at
  every sync point, so ``snapshot()`` / ``snapshot_delta()`` / ``finalize()``
  keep their exact thread-mode semantics while decode + consolidation run on
  as many cores as there are shards.

Shard assignment is deterministic across runs and processes (FNV, not
Python's randomised ``hash``), keeping campaign results reproducible
counter-for-counter, not just record-for-record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.store import MessageStore, ProcessRecord
from repro.faults.plan import FaultPlan
from repro.hashing.fnv import fnv1a_32
from repro.ingest.incremental import IncrementalConsolidator
from repro.ingest.procworkers import DEFAULT_RESEND_WINDOW, ProcessShardPool
from repro.transport.channel import Channel
from repro.transport.messages import UDPMessage
from repro.transport.receiver import DatagramQuarantine, MessageReceiver
from repro.util.errors import TransportError

#: Raw-datagram prefix of a SIREN message (protocol tag + field separator).
_RAW_TAG = b"SIREN1\x1f"
_RAW_SEPARATOR = b"\x1f"


def _in_key_order(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Sort records by the process header key (the batch consolidator's order)."""
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


def shard_of(message: UDPMessage, shards: int) -> int:
    """Deterministic shard index for a message's process key."""
    key = (f"{message.jobid}\x1f{message.stepid}\x1f{message.pid}\x1f"
           f"{message.path_hash}\x1f{message.host}\x1f{message.time}")
    return fnv1a_32(key.encode("utf-8")) % shards


def shard_of_datagram(datagram: bytes, shards: int) -> int | None:
    """Shard index straight from raw datagram bytes; ``None`` if malformed.

    The encoded header lays the six process-key fields (``JOBID`` through
    ``TIME``) contiguously between the protocol tag and the seventh field
    separator, so the byte slice covering them *is* the UTF-8 encoding of
    the key string :func:`shard_of` hashes -- for any datagram produced by
    :meth:`~repro.transport.messages.UDPMessage.encode`, this returns the
    same shard without decoding anything.  Datagrams that do not even carry
    a plausible SIREN header are screened out here (``None``) and counted by
    the front; deeper malformations surface at the worker's real decode.
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
class ShardedIngest:
    """Partition a datagram stream across independent streaming consolidators.

    With ``shards=1`` this degenerates to a single receiver + consolidator --
    the campaign's plain ``ingest_mode="streaming"`` wiring uses exactly that.
    In thread mode all shards share one :class:`MessageStore`; their
    process-key sets are disjoint, so the upsert flushes never collide.  In
    process mode (``workers="process"``) each shard owns a private store and
    finalized records are merged into the shared store at every
    snapshot/delta/finalize sync -- identical table contents, identical
    delta-cursor semantics, true multi-core decode and consolidation.

    Process-mode caveats: operational counters (``messages_received``,
    ``records_built``, ``statistics()``...) reflect the *last sync*, not the
    instant they are read; and with ``persist_raw=True`` the front must
    decode datagrams itself to persist them, giving up most of the routing
    cheapness (pure streaming -- ``persist_raw=False`` -- is the fast path).
    A dead worker is detected at the next queue interaction or sync and
    *healed*: the pool restarts it up to ``max_restarts`` times with
    exponential backoff, replaying every batch not yet acknowledged by a
    sync (a per-shard resend buffer of ``resend_window`` batches).  When the
    replay window covers the crash, the record output is identical to an
    uncrashed run; losses beyond it surface honestly in :meth:`statistics`
    (``restart_lost_groups`` / ``restart_lost_datagrams``).  Past the
    restart budget the crash surfaces as
    :class:`~repro.util.errors.WorkerCrashError` instead of a hang
    (``max_restarts=0`` restores fail-fast).

    ``quarantine_capacity`` keeps the raw bytes and decode-failure reason of
    the most recent undecodable datagrams in a bounded ring
    (:class:`~repro.transport.receiver.DatagramQuarantine`) for forensics --
    both front-screened and worker-side failures land there.  A
    :class:`~repro.faults.plan.FaultPlan` arms deterministic worker faults
    (kill/stall) in process mode; its channel and store profiles are applied
    by the campaign layer, not here.
    """

    store: MessageStore
    shards: int = 1
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    workers: str = "thread"
    max_restarts: int = 2
    resend_window: int = DEFAULT_RESEND_WINDOW
    stall_timeout: float | None = 60.0
    quarantine_capacity: int = 256
    fault_plan: FaultPlan | None = None
    receivers: list[MessageReceiver] = field(init=False, default_factory=list)
    consolidators: list[IncrementalConsolidator] = field(init=False, default_factory=list)
    quarantine: DatagramQuarantine | None = field(init=False, default=None)
    _front_decode_errors: int = field(init=False, default=0)
    _pool: ProcessShardPool | None = field(init=False, default=None)
    _raw_buffer: list[UDPMessage] = field(init=False, default_factory=list)
    _finalized: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise TransportError("ingest needs at least one shard")
        if self.workers not in ("thread", "process"):
            raise TransportError(
                f"unknown ingest workers {self.workers!r} "
                "(expected 'thread' or 'process')")
        if self.quarantine_capacity < 0:
            raise TransportError("quarantine_capacity may not be negative")
        if self.quarantine_capacity:
            self.quarantine = DatagramQuarantine(capacity=self.quarantine_capacity)
        if self.workers == "process":
            worker_faults = None
            if self.fault_plan is not None and self.fault_plan.workers:
                worker_faults = {profile.shard: profile
                                 for profile in self.fault_plan.workers}
            self._pool = ProcessShardPool(
                self.shards, batch_size=self.batch_size,
                flush_batch_size=self.flush_batch_size,
                idle_epochs=self.idle_epochs,
                max_restarts=self.max_restarts,
                resend_window=self.resend_window,
                stall_timeout=self.stall_timeout,
                quarantine=self.quarantine,
                worker_faults=worker_faults)
            return
        self.consolidators = [
            IncrementalConsolidator(self.store, flush_batch_size=self.flush_batch_size,
                                    idle_epochs=self.idle_epochs)
            for _ in range(self.shards)
        ]
        self.receivers = [
            MessageReceiver(self.store, batch_size=self.batch_size, sink=consolidator,
                            persist_raw=self.persist_raw, quarantine=self.quarantine)
            for consolidator in self.consolidators
        ]

    # ------------------------------------------------------------------ #
    # datagram path
    # ------------------------------------------------------------------ #
    def attach(self, channel: Channel) -> None:
        """Subscribe the front to a channel."""
        channel.subscribe(self.handle_datagram)

    def handle_datagram(self, datagram: bytes) -> None:
        """Route one datagram to the owning shard.

        Thread mode decodes here (once, centrally); process mode routes the
        raw bytes by their header slice and lets the owning worker decode.
        """
        if self._pool is not None:
            shard = shard_of_datagram(datagram, self.shards)
            if shard is None:
                self._front_decode_errors += 1
                if self.quarantine is not None:
                    self.quarantine.capture(
                        datagram, "datagram does not carry a SIREN header")
                return
            if self.persist_raw:
                try:
                    message = UDPMessage.decode(datagram)
                except TransportError as error:
                    self._front_decode_errors += 1
                    if self.quarantine is not None:
                        self.quarantine.capture(datagram, str(error))
                    return
                self._raw_buffer.append(message)
                if len(self._raw_buffer) >= self.batch_size:
                    self._flush_raw()
            self._pool.route(shard, datagram)
            return
        try:
            message = UDPMessage.decode(datagram)
        except TransportError as error:
            self._front_decode_errors += 1
            if self.quarantine is not None:
                self.quarantine.capture(datagram, str(error))
            return
        shard = shard_of(message, self.shards) if self.shards > 1 else 0
        self.receivers[shard].handle_message(message)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _flush_raw(self) -> None:
        """Persist the front's raw-message buffer (process mode + persist_raw)."""
        if self._raw_buffer:
            self.store.insert_many(self._raw_buffer)
            self._raw_buffer.clear()

    def flush(self) -> int:
        """Flush every shard's buffer; returns messages delivered/shipped."""
        if self._pool is not None:
            self._flush_raw()
            return self._pool.flush()
        return sum(receiver.flush() for receiver in self.receivers)

    def _sync_pool(self) -> None:
        """Ship pending batches, merge newly finalized records into the store."""
        assert self._pool is not None
        self._flush_raw()
        new_records = self._pool.sync()
        if new_records:
            self.store.insert_processes_if_absent(new_records)

    def snapshot(self) -> list[ProcessRecord]:
        """Live view: flush every shard, then read the shared store once.

        Finalized records come back from the ``processes`` table (each shard
        flushes its pending batch first; memory holds only in-flight
        groups); still-open groups are peeked non-destructively.  Returned
        in canonical process-key order -- the order the batch consolidator
        emits -- so downstream analyses see the same sequence regardless of
        shard count or worker backend.
        """
        if self._pool is not None:
            if not self._finalized:
                self._sync_pool()
            open_peeks = self._pool.open_records
        else:
            self.flush()
            for consolidator in self.consolidators:
                consolidator.flush()
            open_peeks = [record for consolidator in self.consolidators
                          for record in consolidator.peek_open()]
        records = self.store.load_processes()
        finalized = {r.key for r in records}
        records.extend(r for r in open_peeks if r.key not in finalized)
        return _in_key_order(records)

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only what changed since ``cursor``.

        Flushes every shard exactly like :meth:`snapshot`, but instead of
        reading the whole ``processes`` table back, reads only rows past the
        rowid high-water mark -- so the cost of a mid-campaign pull is
        proportional to the records finalized since the last pull (plus the
        handful of still-open groups), not to the campaign so far.  Records
        finalized through the first-close-wins insert are immutable, which
        is what makes the rowid cursor a correct delta stream (see
        :meth:`MessageStore.load_processes_since`); in process mode the
        records are merged into the shared store during this call's sync,
        *before* the cursor read, so the exactly-once contract is unchanged.
        """
        if self._pool is not None:
            if not self._finalized:
                self._sync_pool()
            open_records = self._pool.open_records
        else:
            self.flush()
            for consolidator in self.consolidators:
                consolidator.flush()
            open_records = [record for consolidator in self.consolidators
                            for record in consolidator.peek_open()]
        new_records, cursor = self.store.load_processes_since(cursor)
        return ProcessDelta(new_records=tuple(new_records),
                            open_records=tuple(open_records), cursor=cursor)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: flush, close every shard, return all records.

        Like :meth:`snapshot`, read back from the shared store and returned
        in canonical process-key order.  In process mode this also joins
        every worker process (a worker that died instead surfaces as
        :class:`TransportError`); calling it again is harmless and simply
        re-reads the store.
        """
        if self._pool is not None:
            if not self._finalized:
                self._flush_raw()
                new_records = self._pool.close()
                if new_records:
                    self.store.insert_processes_if_absent(new_records)
                self._finalized = True
            return _in_key_order(self.store.load_processes())
        self.flush()
        for consolidator in self.consolidators:
            consolidator.close_all()
        return _in_key_order(self.store.load_processes())

    def close(self) -> None:
        """Abort path: stop process workers without a final merge.

        Records not yet synced to the shared store are discarded -- use
        :meth:`finalize` for a clean end of stream.  A no-op in thread mode
        and after :meth:`finalize`.
        """
        if self._pool is not None and not self._finalized:
            self._pool.terminate()
            self._finalized = True

    # ------------------------------------------------------------------ #
    # merged counters
    # ------------------------------------------------------------------ #
    @property
    def decode_errors(self) -> int:
        """Undecodable datagrams (front screening plus, in process mode,
        worker-side decode failures as of the last sync)."""
        if self._pool is not None:
            return self._front_decode_errors + self._pool.decode_errors
        return self._front_decode_errors

    @property
    def messages_received(self) -> int:
        """Messages accepted across all shards (last sync, in process mode)."""
        if self._pool is not None:
            return self._pool.messages_received
        return sum(receiver.messages_received for receiver in self.receivers)

    @property
    def records_built(self) -> int:
        """Records finalized across all shards (last sync, in process mode)."""
        if self._pool is not None:
            return self._pool.stat_sum("records_built")
        return sum(consolidator.records_built for consolidator in self.consolidators)

    @property
    def open_processes(self) -> int:
        """Process groups currently open across all shards."""
        if self._pool is not None:
            return self._pool.stat_sum("open_processes")
        return sum(consolidator.open_processes for consolidator in self.consolidators)

    @property
    def peak_open_processes(self) -> int:
        """Sum of per-shard peaks (an upper bound on the true joint peak)."""
        if self._pool is not None:
            return self._pool.stat_sum("peak_open_processes")
        return sum(consolidator.peak_open_processes for consolidator in self.consolidators)

    @property
    def quarantined(self) -> int:
        """Undecodable datagrams captured in the quarantine ring (0 when off)."""
        return len(self.quarantine) if self.quarantine is not None else 0

    @property
    def worker_restarts(self) -> int:
        """Supervised worker restarts so far (always 0 in thread mode)."""
        return self._pool.worker_restarts if self._pool is not None else 0

    def statistics(self) -> dict[str, int]:
        """Merged operational counters of all shards plus the front.

        Counter-for-counter identical between worker backends after a sync
        point (the shard partition is the same FNV function either way); in
        process mode the values are as of the last sync.  The resilience
        counters (``worker_restarts``, ``restart_lost_groups``,
        ``restart_lost_datagrams``, ``resend_replayed_batches``,
        ``resend_overflow_batches``) are structurally zero in thread mode --
        present so the two backends stay key-for-key comparable.
        """
        merged: dict[str, int] = {"shards": self.shards, "decode_errors": self.decode_errors,
                                  "messages_received": self.messages_received,
                                  "quarantined": self.quarantined}
        if self._pool is not None:
            for name, value in self._pool.merged_statistics().items():
                merged[name] = merged.get(name, 0) + value
            merged.update(self._pool.restart_statistics())
        else:
            for consolidator in self.consolidators:
                for name, value in consolidator.statistics().items():
                    merged[name] = merged.get(name, 0) + value
            merged.update({"worker_restarts": 0, "restart_lost_groups": 0,
                           "restart_lost_datagrams": 0, "resend_replayed_batches": 0,
                           "resend_overflow_batches": 0})
        merged["peak_open_processes"] = self.peak_open_processes
        return merged
