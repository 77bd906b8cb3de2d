"""The streaming ingest front: one kind of shard, two places to run it.

The paper's receiver is a single UDP server feeding a consolidation step.
:class:`ShardedIngest` is that, live: datagrams go to an
:class:`~repro.ingest.shard.IngestShard`, finalized records land in the
shared store, and ``snapshot()`` / ``snapshot_delta()`` / ``finalize()``
read them back.  Where the shards run follows from their count -- there is
no backend option:

* ``shards == 1`` -- in this interpreter, over the shared store;
  ``handle_datagram`` *is* the shard's receiver method.
* ``shards > 1`` -- one supervised OS process each
  (:class:`~repro.ingest.procworkers.ProcessShardPool`), fed raw datagram
  bytes routed by :func:`~repro.ingest.shard.shard_of_datagram`; finalized
  records are merged into the shared store at every sync, so the three read
  calls keep their exact in-process semantics.

Several shards inside one interpreter are not offered: they share one GIL,
and measured slower than a single shard on every workload (the table in
``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.db.store import MessageStore, ProcessRecord
from repro.faults.plan import FaultPlan
from repro.ingest.procworkers import ProcessShardPool
from repro.ingest.shard import IngestShard
from repro.transport.channel import Channel
from repro.transport.receiver import DatagramQuarantine
from repro.util.errors import TransportError
from repro.util.timing import NULL_TIMER, StageTimer


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


@dataclass
class ShardedIngest:
    """Streaming ingest over ``shards`` receiver+consolidator shards.

    ``shards=1`` is the campaign's plain ``ingest_mode="streaming"`` wiring;
    more run as worker processes (module docstring) with identical table
    contents and delta-cursor semantics.

    Worker-process caveats: operational counters (``messages_received``,
    ``statistics()``...) reflect the *last sync*, not the instant they are
    read; with ``persist_raw=True`` the front must decode datagrams itself
    to persist them, giving up most of the routing cheapness; and a dead or
    stalled worker is healed up to ``max_restarts`` times (0 = fail-fast)
    before it surfaces as :class:`~repro.util.errors.WorkerCrashError` --
    never a hang.  :mod:`repro.ingest.procworkers` has the supervision
    contract and what the ``restart_*`` / ``resend_*`` counters mean.

    ``quarantine_capacity`` keeps the raw bytes and decode-failure reason of
    the most recent undecodable datagrams in a bounded ring
    (:class:`~repro.transport.receiver.DatagramQuarantine`), wherever the
    shard that failed to decode them runs.  A
    :class:`~repro.faults.plan.FaultPlan` arms deterministic kill/stall
    faults of worker processes; its channel and store profiles are applied
    by the deployment, not here.  ``timer`` times the in-process shard's
    consolidation (a worker process cannot share it).
    """

    store: MessageStore
    shards: int = 1
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    max_restarts: int = 2
    stall_timeout: float | None = 60.0
    quarantine_capacity: int = 256
    fault_plan: FaultPlan | None = None
    timer: StageTimer = field(default=NULL_TIMER, repr=False)
    quarantine: DatagramQuarantine | None = field(init=False, default=None)
    #: where the shards run; both kinds offer route / flush / sync /
    #: finalize / close / statistics, so nothing below asks which it is
    backend: IngestShard | ProcessShardPool = field(init=False)
    #: route one datagram to the owning shard: the backend's ``route``
    #: itself, bound once, so the front adds no call level per datagram
    handle_datagram: Callable[[bytes], object] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise TransportError("ingest needs at least one shard")
        if self.quarantine_capacity:
            self.quarantine = DatagramQuarantine(capacity=self.quarantine_capacity)
        shard_knobs = dict(
            batch_size=self.batch_size, flush_batch_size=self.flush_batch_size,
            idle_epochs=self.idle_epochs, persist_raw=self.persist_raw,
            quarantine=self.quarantine)
        if self.shards == 1:
            self.backend = IngestShard(self.store, timer=self.timer, **shard_knobs)
        else:
            faults = self.fault_plan.workers if self.fault_plan is not None else ()
            self.backend = ProcessShardPool(
                self.store, self.shards, max_restarts=self.max_restarts,
                stall_timeout=self.stall_timeout,
                worker_faults={profile.shard: profile for profile in faults},
                **shard_knobs)
        self.handle_datagram = self.backend.route

    def attach(self, channel: Channel) -> None:
        """Subscribe the front to a channel."""
        channel.subscribe(self.handle_datagram)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[ProcessRecord]:
        """Live view: sync every shard, then read the shared store once.

        Finalized records come back from the ``processes`` table (memory
        holds only in-flight groups); still-open groups are peeked
        non-destructively.  Returned in canonical process-key order -- the
        order the batch consolidator emits -- so downstream analyses see the
        same sequence regardless of shard count.
        """
        open_peeks = self.backend.sync()
        records = self.store.load_processes()
        finalized = {r.key for r in records}
        records.extend(r for r in open_peeks if r.key not in finalized)
        return _in_key_order(records)

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only what changed since ``cursor``.

        Syncs every shard exactly like :meth:`snapshot`, but instead of
        reading the whole ``processes`` table back, reads only rows past the
        rowid high-water mark -- so the cost of a mid-campaign pull is
        proportional to the records finalized since the last pull (plus the
        handful of still-open groups), not to the campaign so far.  Records
        finalized through the first-close-wins insert are immutable, which
        is what makes the rowid cursor a correct delta stream (see
        :meth:`MessageStore.load_processes_since`); worker processes' records
        are merged into the shared store during this call's sync, *before*
        the cursor read, so the exactly-once contract is the same.
        """
        open_records = self.backend.sync()
        new_records, cursor = self.store.load_processes_since(cursor)
        return ProcessDelta(new_records=tuple(new_records),
                            open_records=tuple(open_records), cursor=cursor)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: flush, close every shard, return all records.

        Like :meth:`snapshot`, read back from the shared store and returned
        in canonical process-key order.  Worker processes are joined (one
        that died instead surfaces as :class:`TransportError`); calling it
        again is harmless and simply re-reads the store.
        """
        self.backend.finalize()
        return _in_key_order(self.store.load_processes())

    def close(self) -> None:
        """Abort path: stop worker processes without a final merge.

        Records not yet synced to the shared store are discarded -- use
        :meth:`finalize` for a clean end of stream.  A no-op for the
        in-process shard and after :meth:`finalize`.
        """
        self.backend.close()

    # ------------------------------------------------------------------ #
    # merged counters
    # ------------------------------------------------------------------ #
    def _counter(self, name: str) -> int:
        # worker processes report their shard counters from the first sync on
        return self.backend.statistics().get(name, 0)

    @property
    def decode_errors(self) -> int:
        """Undecodable datagrams (front screening plus every shard's decode
        failures -- as of the last sync where the shards are processes)."""
        return self._counter("decode_errors")

    @property
    def messages_received(self) -> int:
        """Messages accepted across all shards."""
        return self._counter("messages_received")

    @property
    def peak_open_processes(self) -> int:
        """Sum of per-shard peaks (an upper bound on the true joint peak)."""
        return self._counter("peak_open_processes")

    @property
    def quarantined(self) -> int:
        """Undecodable datagrams captured in the quarantine ring (0 when off)."""
        return len(self.quarantine) if self.quarantine is not None else 0

    @property
    def worker_restarts(self) -> int:
        """Supervised worker restarts so far (always 0 in-process)."""
        return self._counter("worker_restarts")

    def statistics(self) -> dict[str, int]:
        """Merged operational counters of all shards plus the front.

        The same key set wherever the shards run, and counter-for-counter
        what ``shards`` in-process fronts fed the same partition would sum
        to; as of the last sync where the shards are processes.  The
        resilience counters (``worker_restarts``, ``restart_lost_groups``,
        ``restart_lost_datagrams``, ``resend_replayed_batches``,
        ``resend_overflow_batches``) are structurally zero in-process.
        """
        merged: dict[str, int] = {
            "shards": self.shards, "quarantined": self.quarantined,
            "worker_restarts": 0, "restart_lost_groups": 0,
            "restart_lost_datagrams": 0, "resend_replayed_batches": 0,
            "resend_overflow_batches": 0}
        merged.update(self.backend.statistics())
        return merged
