"""Process-parallel shard workers for the sharded ingest front.

N shards in one interpreter would share its GIL and lose to a single one.
:class:`ProcessShardPool` is the other place an
:class:`~repro.ingest.shard.IngestShard` can run: each of N shards gets a
real OS process owning a *private* in-memory
:class:`~repro.db.store.MessageStore`, fed pre-partitioned batches of **raw
datagram bytes** over a bounded queue.  The front never decodes (routing
reads the raw header slice, see
:func:`~repro.ingest.shard.shard_of_datagram`), so its per-datagram cost is
a header scan plus a queue append -- decode, quarantine, grouping and record
assembly run on the workers' cores, in the class the in-process front
holds.  Equivalence with in-process ingest rests on "same class, same
batches": one shipped batch is one receiver flush, one idle-clock tick.

Merge-at-snapshot
-----------------
Workers never touch the shared store.  Finalized records accumulate in each
worker's private store and are shipped back -- exactly once, tracked by a
worker-local rowid cursor -- when the front performs a **sync**: a marker
message is enqueued after all pending batches, and because the feed queue is
FIFO, the worker's reply proves every previously shipped datagram has been
consumed.  The front inserts the returned records into the shared store
through the same first-close-wins insert streaming mode always used, so
``snapshot()`` / ``snapshot_delta()`` / ``finalize()`` keep their exact
in-process semantics: finalized records live in the shared ``processes``
table, the rowid delta cursor stays monotonic and exactly-once, and open
groups are non-destructive peeks (returned with each sync reply).

Self-healing supervision
------------------------
A long-lived ingest front cannot treat a crashed worker as a reason to tear
the deployment down.  The pool therefore *supervises* its workers:

* **resend buffer**: every shipped batch is also kept in a per-shard
  ``unacked`` list until a sync reply acknowledges it (the FIFO feed queue
  makes one reply an ack for everything shipped before the marker).  The
  buffer is bounded by ``resend_window`` batches; overflow evicts the oldest
  batch and is *counted*, because it punches a hole in what a restart can
  recover.
* **restart with bounded retries and backoff**: when a worker dies (or
  stalls past ``stall_timeout`` -- it is then killed), the supervisor spawns
  a fresh worker after an exponentially backed-off, jittered delay
  (:class:`~repro.util.retry.RetryPolicy`), replays the unacked batches in
  their original order, and re-issues any outstanding sync marker.  Records
  merged into the shared store before the crash survive by construction
  (re-seeding is implicit: the shared store is the checkpoint, and the
  store's first-close-wins insert makes a replayed re-finalization a no-op).
  Once a shard exhausts ``max_restarts``, the pool tears down and raises
  :class:`~repro.util.errors.WorkerCrashError` -- never a hang.
* **honest loss accounting**: a crash loses exactly (a) the messages of
  groups that were still *open* at the last acked sync (their pre-ack
  datagrams were consumed and are no longer in the resend buffer) and (b)
  any batches evicted from the bounded resend window since that ack.  Both
  are surfaced per shard (``restart_lost_groups`` /
  ``restart_lost_datagrams`` in the merged statistics): when both are zero,
  the replay window covered the crash and the record output is identical to
  an uncrashed run -- the chaos suite pins exactly that.

Counters survive restarts: acked counter totals are folded into a per-shard
base before each respawn, so the shard statistics stay exactly-once across
incarnations (replayed datagrams are counted by exactly one incarnation's
acked report).  Quarantine captures ride the same reports -- each report
drains the worker's ring, so a capture is merged into the front's ring by
the one report that was acked, or re-made by the replay.

Deterministic worker faults (:class:`~repro.faults.plan.WorkerFaultProfile`)
ride into the worker at spawn: the worker hard-exits or stalls itself at a
configured batch count, which is how the chaos suite and the degradation
bench kill shards mid-replay reproducibly.

Failure semantics
-----------------
Queues are bounded (``queue_depth`` batches per worker), so a dead worker
cannot make the front buffer unboundedly: every blocking interaction --
feeding a full queue, awaiting a sync reply -- polls worker liveness and
enters the supervision path above instead of hanging.  On final failure the
whole pool is torn down (no orphaned children); records already merged into
the shared store survive, and the loss counters say what did not.  Workers
are daemonic as a last-resort backstop: an abandoned, unfinalized front
cannot keep the interpreter alive.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from queue import Empty, Full

from repro.db.store import MessageStore, ProcessRecord
from repro.faults.plan import WorkerFaultProfile
from repro.ingest.shard import IngestShard, shard_of_datagram
from repro.transport.receiver import (DatagramQuarantine, MessageReceiver,
                                      QuarantinedDatagram)
from repro.util.errors import IngestError, WorkerCrashError
from repro.util.retry import RetryPolicy

#: Bounded feed-queue depth, in batches: a worker can fall at most this many
#: batches (``queue_depth * batch_size`` datagrams) behind the front before
#: back-pressure blocks the producer.  Bounded memory, and a liveness probe
#: point -- an unbounded queue would let a crashed worker absorb the whole
#: campaign silently.
DEFAULT_QUEUE_DEPTH = 8

#: Bounded resend-buffer depth, in batches, per shard.  Batches older than
#: this (and not yet acked by a sync) are evicted and counted: a restart can
#: no longer replay them, so the equivalence guarantee narrows honestly.
DEFAULT_RESEND_WINDOW = 256

#: Exit code a worker uses when an injected fault hard-kills it; chosen to
#: be recognisable in diagnostics (and distinct from signal exits).
FAULT_EXIT_CODE = 113

#: Default backoff between supervised worker restarts: 2 restarts, 50 ms
#: doubling to a 1 s cap, +-50% jitter so a fleet of shards never restarts
#: in lockstep.
DEFAULT_RESTART_BACKOFF = RetryPolicy(attempts=2, base_delay=0.05,
                                      growth=2.0, max_delay=1.0, jitter=0.5)

#: Seconds a queue interaction waits between worker-liveness probes.
_POLL_INTERVAL = 0.2

#: Seconds to keep draining a reply queue after its worker exited -- the
#: queue feeder thread may still be flushing the final report.
_DRAIN_GRACE = 5.0


@dataclass(frozen=True)
class ShardReport:
    """One worker's reply to a sync/close marker."""

    sync_id: int
    new_records: tuple[ProcessRecord, ...]   #: finalized since the last sync
    open_records: tuple[ProcessRecord, ...]  #: current non-destructive peek
    statistics: dict                         #: the shard's counters so far
    #: the worker quarantine's retained captures since the last report ...
    quarantined: tuple[QuarantinedDatagram, ...] = ()
    quarantine_evicted: int = 0              #: ... and how many it evicted


def _shard_worker_main(feed, replies, batch_size: int, flush_batch_size: int,
                       idle_epochs: int, quarantine_capacity: int,
                       fault: WorkerFaultProfile | None) -> None:
    """One shard worker: an :class:`IngestShard` over a private store.

    Commands (FIFO): ``("batch", [datagram, ...])`` routes one shipped batch
    through the shard and flushes it (a batch is at most ``batch_size``
    datagrams, so that is one receiver flush and one epoch tick);
    ``("sync", id)`` flushes and reports; ``("close", id)`` closes every
    open group, reports, and exits.  With ``quarantine_capacity > 0`` the
    shard captures corrupt datagrams in a ring of its own, drained into
    every report.

    A :class:`WorkerFaultProfile` makes the worker sabotage itself
    deterministically: ``os._exit`` (indistinguishable from SIGKILL to the
    front) or a stall just *before* consuming the configured batch -- so the
    datagrams of that batch genuinely die with the worker and only the
    front's resend buffer can bring them back.
    """
    quarantine = (DatagramQuarantine(capacity=quarantine_capacity)
                  if quarantine_capacity else None)
    shard = IngestShard(MessageStore(), batch_size=batch_size,
                        flush_batch_size=flush_batch_size,
                        idle_epochs=idle_epochs, quarantine=quarantine)
    cursor = 0
    batches_seen = 0
    stalled_once = False
    supervisor_pid = os.getppid()
    while True:
        try:
            command, payload = feed.get(timeout=_POLL_INTERVAL)
        except Empty:
            # Orphan backstop: if the supervising front died without sending
            # "close", the worker would block on this queue forever (the
            # feed's feeder thread is non-daemonic).  Re-parenting (getppid
            # changes to init/subreaper) is the death certificate.
            if os.getppid() != supervisor_pid:
                return
            continue
        if command == "batch":
            batches_seen += 1
            if fault is not None:
                if (fault.kill_after_batches is not None
                        and batches_seen >= fault.kill_after_batches):
                    os._exit(FAULT_EXIT_CODE)
                if (fault.stall_after_batches is not None and not stalled_once
                        and batches_seen >= fault.stall_after_batches):
                    stalled_once = True
                    time.sleep(fault.stall_seconds)
            for datagram in payload:
                shard.route(datagram)
            shard.flush()
        elif command in ("sync", "close"):
            if command == "close":
                shard.finalize()
            open_records = shard.sync()  # nothing, once finalized
            new_records, cursor = shard.store.load_processes_since(cursor)
            captures, evicted = (quarantine.drain() if quarantine is not None
                                 else ([], 0))
            replies.put(ShardReport(
                sync_id=payload,
                new_records=tuple(new_records),
                open_records=tuple(open_records),
                statistics=shard.statistics(),
                quarantined=tuple(captures),
                quarantine_evicted=evicted,
            ))
            if command == "close":
                return


def _context():
    """Prefer fork (cheap, no re-import) where available, else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _merge_counters(base: dict, update: dict) -> dict:
    """Key-wise sum of two counter dicts."""
    merged = dict(base)
    for name, value in update.items():
        merged[name] = merged.get(name, 0) + value
    return merged


@dataclass
class _WorkerHandle:
    """The front's view of one shard worker (across restarts)."""

    index: int
    process: multiprocessing.Process | None = None
    feed: object = None     #: bounded command queue, front -> worker
    replies: object = None  #: report queue, worker -> front
    buffer: list[bytes] = field(default_factory=list)  #: pending raw datagrams

    # --- supervision state -------------------------------------------- #
    restarts: int = 0        #: supervised restarts consumed so far
    #: Batches shipped since the last acked sync, in ship order -- what a
    #: restarted worker replays.
    unacked: list = field(default_factory=list)
    outstanding_sync: tuple | None = None  #: (command, sync_id) awaiting a reply
    open_at_ack: int = 0     #: open groups reported by the last acked sync
    replayed_batches: int = 0
    resend_overflow_batches: int = 0
    overflow_datagrams_since_ack: int = 0
    lost_open_groups: int = 0   #: groups whose pre-ack messages died with a worker
    lost_datagrams: int = 0     #: overflowed (unreplayable) datagrams lost to a crash

    # --- exactly-once counters across incarnations -------------------- #
    #: Acked shard statistics of *dead* incarnations (folded in before each
    #: respawn).
    base_stats: dict = field(default_factory=dict)
    #: Merged totals as of the last ack (base + current incarnation).
    total_stats: dict = field(default_factory=dict)


@dataclass(eq=False)
class ProcessShardPool:
    """N supervised shard-worker processes behind partitioned bounded queues.

    Offers the operations of one :class:`~repro.ingest.shard.IngestShard`
    -- :meth:`route`, :meth:`flush`, :meth:`sync`, :meth:`finalize`,
    :meth:`close`, :meth:`statistics` -- over ``shards`` of them, merging
    what they finalize into the shared ``store`` at every sync.

    Parameters
    ----------
    store:
        The shared store finalized records are merged into (and, with
        ``persist_raw``, raw messages are persisted to -- the front then has
        to decode every datagram itself, giving up most of the routing
        cheapness).
    shards, batch_size, flush_batch_size, idle_epochs, queue_depth:
        The shard count, the front's ship granularity (and the workers'
        receiver batch) and the workers' consolidator knobs.
    max_restarts:
        Supervised restarts allowed *per shard* before a dead/stalled worker
        becomes :class:`WorkerCrashError` (0 restores fail-fast).
    restart_backoff:
        Delay schedule between restart attempts (exponential, jittered).
    resend_window:
        Resend-buffer bound per shard, in batches; see the module docstring.
    stall_timeout:
        Seconds of zero progress (full feed queue, or a sync reply that
        never comes while the process is alive) before a worker is declared
        stalled, killed and restarted.  ``None`` disables stall detection.
    drain_grace:
        Seconds to keep draining a dead worker's reply queue before
        restarting it -- the final report may still be flushing through the
        queue's feeder thread.  (A too-short grace is safe, just wasteful:
        the unacked replay recomputes whatever the lost report carried.)
    quarantine:
        Optional :class:`DatagramQuarantine` of the front: datagrams no shard
        can own are captured here directly, and each worker's own ring (same
        capacity) is drained into it with every sync report.
    worker_faults:
        Deterministic sabotage per shard index
        (:class:`~repro.faults.plan.WorkerFaultProfile`); a profile with
        ``repeat=False`` arms only the first incarnation, so the supervisor
        demonstrably heals it.
    """

    store: MessageStore
    shards: int
    batch_size: int = 500
    flush_batch_size: int = 64
    idle_epochs: int = 2
    persist_raw: bool = False
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_restarts: int = 2
    restart_backoff: RetryPolicy = DEFAULT_RESTART_BACKOFF
    resend_window: int = DEFAULT_RESEND_WINDOW
    stall_timeout: float | None = 60.0
    drain_grace: float = _DRAIN_GRACE
    quarantine: DatagramQuarantine | None = None
    worker_faults: dict[int, WorkerFaultProfile] = field(default_factory=dict)
    closed: bool = field(init=False, default=False)
    #: the terminal supervisor failure, kept so it resurfaces on every later
    #: interaction -- the original raise travels up a channel delivery
    #: callback, and fire-and-forget senders swallow it there.
    failure: WorkerCrashError | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise IngestError("max_restarts may not be negative")
        if self.resend_window < 1:
            raise IngestError("resend_window must be at least 1 batch")
        #: the front's own receiver: persists raw messages when asked, and
        #: counts and quarantines the datagrams no shard can own
        self._front = MessageReceiver(
            self.store, batch_size=self.batch_size,
            persist_raw=self.persist_raw, quarantine=self.quarantine)
        self._sync_id = 0
        self._context = _context()
        self._backoff_rng = random.Random(0xBACC0FF)  # jitter only; not output-visible
        self._workers: list[_WorkerHandle] = []
        for index in range(self.shards):
            worker = _WorkerHandle(index=index)
            self._spawn(worker)
            self._workers.append(worker)

    # ------------------------------------------------------------------ #
    # spawning / supervision
    # ------------------------------------------------------------------ #
    def _spawn(self, worker: _WorkerHandle) -> None:
        """Start a fresh process (and queues) for ``worker``'s shard."""
        fault = self.worker_faults.get(worker.index)
        if fault is not None and worker.restarts > 0 and not fault.repeat:
            fault = None  # one-shot faults arm only the first incarnation
        worker.feed = self._context.Queue(maxsize=self.queue_depth)
        worker.replies = self._context.Queue()
        capacity = self.quarantine.capacity if self.quarantine is not None else 0
        worker.process = self._context.Process(
            target=_shard_worker_main,
            args=(worker.feed, worker.replies, self.batch_size,
                  self.flush_batch_size, self.idle_epochs, capacity, fault),
            name=f"siren-shard-{worker.index}", daemon=True)
        worker.process.start()

    def _discard_queues(self, worker: _WorkerHandle) -> None:
        """Release a dead incarnation's queues without blocking on them."""
        for queue in (worker.feed, worker.replies):
            if queue is None:
                continue
            queue.cancel_join_thread()
            queue.close()

    def _kill_worker(self, worker: _WorkerHandle) -> None:
        """Forcibly end a stalled worker so the supervisor can respawn it."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=10)

    def _revive(self, worker: _WorkerHandle, reason: str) -> None:
        """Restart a dead worker, replaying its unacked batches.

        Loops until a fresh incarnation survives the replay or the restart
        budget is exhausted (then the pool tears down and
        :class:`WorkerCrashError` propagates).  Each pass: account what this
        crash irrecoverably lost, fold the dead incarnation's acked counters
        into the shard's base (idempotent -- totals only move at an ack),
        back off, respawn, replay.
        """
        while True:
            if worker.restarts >= self.max_restarts:
                self._fail(worker, reason)
            # Honest loss accounting: pre-ack messages of groups still open
            # at the last ack died with the worker (they are not in the
            # resend buffer any more), as did any batches the bounded window
            # already evicted.  Zero both => the replay window covers this
            # crash and the healed output is identical to an uncrashed run.
            worker.lost_open_groups += worker.open_at_ack
            worker.lost_datagrams += worker.overflow_datagrams_since_ack
            worker.open_at_ack = 0
            worker.overflow_datagrams_since_ack = 0
            worker.base_stats = dict(worker.total_stats)
            self._discard_queues(worker)
            delay = self.restart_backoff.delay(worker.restarts, self._backoff_rng)
            if delay > 0:
                time.sleep(delay)
            worker.restarts += 1
            self._spawn(worker)
            replayed, reason = self._replay(worker)
            if replayed:
                return

    def _replay(self, worker: _WorkerHandle) -> tuple[bool, str]:
        """Re-feed a fresh incarnation everything not yet acked.

        Returns ``(False, reason)`` if the new worker also died or stalled
        mid-replay (the caller loops, burning another restart).
        """
        commands = [("batch", batch) for batch in worker.unacked]
        if worker.outstanding_sync is not None:
            commands.append(worker.outstanding_sync)
        for command in commands:
            delivered, reason = self._put_once(worker, command)
            if not delivered:
                return False, reason
        worker.replayed_batches += len(worker.unacked)
        return True, ""

    def _fail(self, worker: _WorkerHandle, reason: str) -> None:
        """Tear the pool down; the shard is beyond its restart budget.

        The failure is remembered on the pool: the raise below may travel up
        a channel delivery callback into a fire-and-forget sender that
        swallows it, so every later interaction (another ``route``, the
        final ``sync``/``finalize``) re-raises it instead of pretending the
        pool merely closed.
        """
        self.close()
        budget = (f"restart budget of {self.max_restarts} exhausted"
                  if self.max_restarts else "supervised restart is disabled"
                  " (max_restarts=0)")
        self.failure = WorkerCrashError(
            f"ingest shard {worker.index} {reason}; {budget} -- datagrams "
            "outstanding on that shard since the last acknowledged sync are "
            f"lost ({worker.lost_open_groups} group(s) already unrecoverable)")
        raise self.failure

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def route(self, datagram: bytes) -> None:
        """Buffer one raw datagram for the shard that owns its process key;
        ship on a full batch."""
        if self.failure is not None:
            raise self.failure
        shard = shard_of_datagram(datagram, self.shards)
        if shard is None or self.persist_raw:
            # A datagram without a routable header cannot decode either (that
            # takes the tag and all twelve fields): the front's receiver
            # counts and quarantines it, as it does one that fails the decode
            # persisting needs.
            if not self._front.handle_datagram(datagram) or shard is None:
                return
        worker = self._workers[shard]
        worker.buffer.append(datagram)
        if len(worker.buffer) >= self.batch_size:
            self._ship(worker)

    def flush(self) -> int:
        """Ship every partial batch; returns how many datagrams were shipped."""
        self._front.flush()
        shipped = 0
        for worker in self._workers:
            shipped += len(worker.buffer)
            self._ship(worker)
        return shipped

    def _ship(self, worker: _WorkerHandle) -> None:
        if not worker.buffer:
            return
        batch = worker.buffer
        worker.buffer = []
        self._put(worker, ("batch", batch))
        worker.unacked.append(batch)
        if len(worker.unacked) > self.resend_window:
            evicted = worker.unacked.pop(0)
            worker.resend_overflow_batches += 1
            worker.overflow_datagrams_since_ack += len(evicted)

    def _put_once(self, worker: _WorkerHandle, command: tuple) -> tuple[bool, str]:
        """One enqueue attempt loop; reports death/stall instead of healing."""
        waited = 0.0
        while True:
            if not worker.process.is_alive():
                return False, (f"worker died (exit code "
                               f"{worker.process.exitcode})")
            try:
                worker.feed.put(command, timeout=_POLL_INTERVAL)
                return True, ""
            except Full:
                waited += _POLL_INTERVAL
                if self.stall_timeout is not None and waited >= self.stall_timeout:
                    self._kill_worker(worker)
                    return False, (f"worker stalled (no progress on a full "
                                   f"feed queue for {waited:.0f}s; killed)")

    def _put(self, worker: _WorkerHandle, command: tuple) -> None:
        """Enqueue with back-pressure, healing a dead/stalled worker."""
        while True:
            delivered, reason = self._put_once(worker, command)
            if delivered:
                return
            self._revive(worker, reason)

    # ------------------------------------------------------------------ #
    # sync / close
    # ------------------------------------------------------------------ #
    def sync(self) -> list[ProcessRecord]:
        """Ship pending batches and merge what the workers finalized since
        the last sync into the shared store; returns their open peeks.

        Each record reaches the store exactly once across the pool's
        lifetime, in shard order.
        """
        return [record for report in self._collect("sync")
                for record in report.open_records]

    def finalize(self) -> None:
        """Final sync: close all open groups, stop and join every worker."""
        if not self._collect("close"):
            return
        for worker in self._workers:
            worker.process.join(timeout=30)
            if worker.process.is_alive():  # pragma: no cover - defensive
                self.close()
                raise IngestError(
                    f"ingest shard {worker.index} worker failed to exit on close")
            worker.feed.close()
            worker.replies.close()
        self.closed = True

    def _collect(self, command: str) -> list[ShardReport]:
        """One marker round trip per worker; no reports once the pool is
        closed (after :meth:`finalize` or :meth:`close` nothing is open)."""
        if self.failure is not None:
            raise self.failure
        if self.closed:
            return []
        self.flush()
        self._sync_id += 1
        for worker in self._workers:
            self._put(worker, (command, self._sync_id))
            # Registered only after a successful put: if the put itself had
            # to revive the worker, the replay must not re-issue a marker
            # that was never delivered (the loop above still delivers it).
            worker.outstanding_sync = (command, self._sync_id)
        reports = [self._await_report(worker) for worker in self._workers]
        new_records = [record for report in reports for record in report.new_records]
        if new_records:
            self.store.insert_processes_if_absent(new_records)
        return reports

    def _await_report(self, worker: _WorkerHandle) -> ShardReport:
        died_at: float | None = None
        stalled_for = 0.0
        while True:
            try:
                report = worker.replies.get(timeout=_POLL_INTERVAL)
            except Empty:
                if not worker.process.is_alive():
                    # The reply may still be in flight from the worker's
                    # queue feeder thread; drain briefly before concluding.
                    now = time.monotonic()
                    if died_at is None:
                        died_at = now
                    elif now - died_at > self.drain_grace:
                        self._revive(worker, (
                            "worker died awaiting a sync reply (exit code "
                            f"{worker.process.exitcode})"))
                        died_at = None
                        stalled_for = 0.0
                else:
                    died_at = None
                    stalled_for += _POLL_INTERVAL
                    if (self.stall_timeout is not None
                            and stalled_for >= self.stall_timeout):
                        self._kill_worker(worker)
                        self._revive(worker, (
                            "worker stalled (no sync reply for "
                            f"{stalled_for:.0f}s; killed)"))
                        stalled_for = 0.0
                continue
            if report.sync_id == self._sync_id:
                self._ack(worker, report)
                return report
            # Stale report from before a restart: ignore and keep waiting.

    def _ack(self, worker: _WorkerHandle, report: ShardReport) -> None:
        """A sync reply arrived: release the resend buffer, fold counters."""
        worker.outstanding_sync = None
        worker.unacked.clear()
        worker.overflow_datagrams_since_ack = 0
        worker.open_at_ack = len(report.open_records)
        worker.total_stats = _merge_counters(worker.base_stats, report.statistics)
        if self.quarantine is not None:
            self.quarantine.extend(report.quarantined, report.quarantine_evicted)

    def close(self) -> None:
        """Abort path: kill every worker and release the queues.

        Records not yet merged into the shared store are discarded; a no-op
        after :meth:`finalize`.
        """
        if self.closed:
            return
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join(timeout=10)
            self._discard_queues(worker)
        self.closed = True

    # ------------------------------------------------------------------ #
    # merged counters, as of the last sync
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict[str, int]:
        """The shards' counters summed, plus the front's and the supervisor's.

        The shard counters are as of the last sync (absent before the first
        one) and exactly-once across restarts: dead incarnations contribute
        their last *acked* totals, the live incarnation re-counts the replay.
        """
        merged: dict[str, int] = {}
        for worker in self._workers:
            merged = _merge_counters(merged, worker.total_stats)
        merged["decode_errors"] = (merged.get("decode_errors", 0)
                                   + self._front.decode_errors)
        workers = self._workers
        merged.update({
            "worker_restarts": sum(w.restarts for w in workers),
            "restart_lost_groups": sum(w.lost_open_groups for w in workers),
            "restart_lost_datagrams": sum(w.lost_datagrams for w in workers),
            "resend_replayed_batches": sum(w.replayed_batches for w in workers),
            "resend_overflow_batches": sum(w.resend_overflow_batches for w in workers),
        })
        return merged

    # ------------------------------------------------------------------ #
    # introspection (tests, diagnostics)
    # ------------------------------------------------------------------ #
    @property
    def processes(self) -> list[multiprocessing.Process]:
        """The (current) worker processes, in shard order."""
        return [worker.process for worker in self._workers]

    def alive_workers(self) -> list[int]:
        """Shard indices whose worker process is still alive."""
        return [worker.index for worker in self._workers
                if worker.process.is_alive()]
