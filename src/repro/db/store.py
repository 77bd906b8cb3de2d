"""SQLite-backed storage for raw messages and consolidated process records.

The store is intentionally close to the paper's description: one table of raw
UDP messages keyed by the header columns, and (after post-processing) one
table with a single consolidated row per process.  An in-memory database is
the default; pass a path to persist to disk.

Write paths retry transient SQLite failures (``database is locked`` /
``database table is locked`` / busy-style :class:`sqlite3.OperationalError`)
with jittered exponential backoff, so a WAL store shared with concurrent
readers survives lock contention instead of aborting consolidation; the
budget is configurable through :class:`~repro.util.retry.RetryPolicy` and
non-transient errors (disk full, corrupt database) still fail fast.  The
``fault_injector`` hook lets the chaos layer (:mod:`repro.faults`) inject
deterministic store faults without patching SQLite itself.
"""

from __future__ import annotations

import random
import sqlite3
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.db.schema import MESSAGES_SCHEMA, PROCESSES_SCHEMA

if TYPE_CHECKING:  # imported lazily: repro.db.tiered imports this module
    from repro.db.tiered import TieredStore
from repro.transport.messages import UDPMessage
from repro.util.retry import RetryPolicy
from repro.util.timing import NULL_TIMER

#: Substrings marking an :class:`sqlite3.OperationalError` as transient --
#: lock/busy contention clears on its own, so a bounded retry is the right
#: response; anything else ("disk is full", "database disk image is
#: malformed", ...) will not heal by waiting and fails fast.
_TRANSIENT_MARKERS = ("locked", "busy")


def is_transient_sqlite_error(error: sqlite3.OperationalError) -> bool:
    """Whether the error is contention that a bounded retry can outwait."""
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)


#: The canonical process key: a record's identity, its shard routing input
#: and -- sorted -- the batch consolidator's record order.
ProcessKey = tuple[str, str, int, str, str, int]


@dataclass
class ProcessRecord:
    """One consolidated per-process record (the unit of all analyses)."""

    jobid: str
    stepid: str
    pid: int
    hash: str
    host: str
    time: int
    uid: int | None = None
    gid: int | None = None
    ppid: int | None = None
    executable: str = ""
    category: str = ""
    file_metadata: str = ""
    modules: str = ""
    modules_h: str = ""
    objects: str = ""
    objects_h: str = ""
    compilers: str = ""
    compilers_h: str = ""
    maps: str = ""
    maps_h: str = ""
    file_h: str = ""
    strings_h: str = ""
    symbols_h: str = ""
    script_path: str = ""
    script_h: str = ""
    script_meta: str = ""
    python_packages: str = ""
    incomplete: int = 0

    @property
    def key(self) -> ProcessKey:
        """The canonical process key of this record."""
        return (self.jobid, self.stepid, self.pid, self.hash, self.host, self.time)

    @property
    def object_list(self) -> list[str]:
        """Loaded shared objects as a list."""
        return [item for item in self.objects.split("\n") if item]

    @property
    def compiler_list(self) -> list[str]:
        """Compiler identification strings as a list."""
        return [item for item in self.compilers.split(";") if item]

    @property
    def module_list(self) -> list[str]:
        """Loaded modules as a list."""
        return [item for item in self.modules.split(":") if item]

    @property
    def python_package_list(self) -> list[str]:
        """Imported Python packages as a list."""
        return [item for item in self.python_packages.split(",") if item]

    @property
    def executable_name(self) -> str:
        """Base name of the executable."""
        return self.executable.rsplit("/", 1)[-1]


#: Every record field, in dataclass order, and the record as that tuple.
PROCESS_FIELDS = tuple(f.name for f in fields(ProcessRecord))
process_row = attrgetter(*PROCESS_FIELDS)
#: The ``processes`` column list in the same order, so an inserted row is
#: ``process_row(record)`` and a selected one ``ProcessRecord(*row)``.
_PROCESS_COLUMNS = ", ".join(PROCESS_FIELDS)


class MessageStore:
    """SQLite wrapper holding the ``messages`` and ``processes`` tables.

    Parameters
    ----------
    path:
        SQLite path; ``":memory:"`` keeps everything in RAM.
    retry:
        Backoff budget applied to every write path when a *transient*
        :class:`sqlite3.OperationalError` (lock/busy contention) strikes.
        Retries count into :attr:`write_retries`; exhausting the budget (or
        hitting a non-transient error such as disk-full) re-raises the
        original SQLite error.
    """

    def __init__(self, path: str = ":memory:", *,
                 retry: RetryPolicy | None = None) -> None:
        self.path = path
        self.retry = RetryPolicy() if retry is None else retry
        #: Transient write failures retried so far (visible in statistics).
        self.write_retries = 0
        #: Chaos hook (:mod:`repro.faults`): called with the operation name
        #: before every write transaction; an :class:`sqlite3.OperationalError`
        #: it raises goes through exactly the retry path a real one would.
        self.fault_injector: Callable[[str], None] | None = None
        self._sleep = time.sleep          # injectable for tests
        self._retry_rng = random.Random(0xC0FFEE)  # jitter only; not output-visible
        #: Stage stopwatch for write transactions ("store.write"); campaigns
        #: replace it with their shared timer.
        self.timer = NULL_TIMER
        #: Attached tiered store (silver shards + gold rollups), kept in sync
        #: with every consolidated-record write; see :meth:`attach_tiered`.
        self.tiered: TieredStore | None = None
        self._tiered_cursor = 0
        self.connection = sqlite3.connect(path)
        if path == ":memory:":
            # Nothing to make crash-safe: trade all durability for speed.
            self.connection.execute("PRAGMA synchronous=OFF")
            self.connection.execute("PRAGMA journal_mode=MEMORY")
        else:
            # On-disk stores survive a receiver crash: WAL keeps readers and
            # the ingest writer concurrent, NORMAL syncs at checkpoints.
            self.connection.execute("PRAGMA journal_mode=WAL")
            self.connection.execute("PRAGMA synchronous=NORMAL")
        self._migrate_duplicate_processes()
        self.connection.executescript(MESSAGES_SCHEMA)
        self.connection.executescript(PROCESSES_SCHEMA)

    def _migrate_duplicate_processes(self) -> None:
        """Drop duplicate process rows left by pre-upsert versions of the store.

        Older versions used plain ``INSERT`` with no unique key, so repeated
        consolidation of an on-disk store produced duplicate rows; creating
        ``ux_processes_key`` over them would fail.  Keep the newest row per
        process key (the most recent consolidation) before the index exists.
        """
        has_table = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='processes'"
        ).fetchone()
        has_index = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type='index' AND name='ux_processes_key'"
        ).fetchone()
        if has_table and not has_index:
            with self.connection:
                self.connection.execute(
                    "DELETE FROM processes WHERE id NOT IN (SELECT MAX(id)"
                    " FROM processes GROUP BY jobid, stepid, pid, hash, host, time)"
                )

    # ------------------------------------------------------------------ #
    # fault-tolerant write primitive
    # ------------------------------------------------------------------ #
    def _write(self, operation: str, transaction: Callable[[], object]) -> int:
        """Run one write transaction, retrying transient SQLite failures.

        ``transaction`` executes inside ``with self.connection`` so a failed
        attempt rolls back cleanly before the retry; the sleep between
        attempts grows exponentially with deterministic jitter (see
        :class:`~repro.util.retry.RetryPolicy`).  Returns how many rows the
        attempt that committed inserted, updated or deleted.
        """
        attempt = 0
        while True:
            try:
                if self.fault_injector is not None:
                    self.fault_injector(operation)
                with self.timer.section("store.write"):
                    with self.connection:
                        before = self.connection.total_changes
                        transaction()
                        return self.connection.total_changes - before
            except sqlite3.OperationalError as error:
                if not is_transient_sqlite_error(error) or attempt >= self.retry.attempts:
                    raise
                self.write_retries += 1
                self._sleep(self.retry.delay(attempt, self._retry_rng))
                attempt += 1

    # ------------------------------------------------------------------ #
    # raw messages
    # ------------------------------------------------------------------ #
    def insert(self, message: UDPMessage) -> None:
        """Insert one raw message."""
        self.insert_many([message])

    def insert_many(self, messages: Iterable[UDPMessage]) -> int:
        """Insert a batch of raw messages; returns how many were inserted."""
        rows = [
            (
                message.jobid, message.stepid, message.pid, message.path_hash,
                message.host, message.time, message.layer.value, message.info_type.value,
                message.chunk_index, message.chunk_total, message.content,
            )
            for message in messages
        ]
        self._write("insert_messages", lambda: self.connection.executemany(
            "INSERT INTO messages (jobid, stepid, pid, hash, host, time, layer, type,"
            " chunk_index, chunk_total, content) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            rows,
        ))
        return len(rows)

    def message_count(self) -> int:
        """Total number of raw messages stored."""
        cursor = self.connection.execute("SELECT COUNT(*) FROM messages")
        return int(cursor.fetchone()[0])

    def iter_messages(self, *, batch_rows: int = 1024) -> Iterator[tuple]:
        """Iterate over raw message rows in process order.

        The ``ORDER BY`` is satisfied by ``idx_messages_consolidation_order``,
        so consolidation streams straight off the index instead of sorting the
        whole table; rows are fetched ``batch_rows`` at a time.
        """
        cursor = self.connection.execute(
            "SELECT jobid, stepid, pid, hash, host, time, layer, type, chunk_index,"
            " chunk_total, content FROM messages"
            " ORDER BY jobid, stepid, pid, hash, time, type, chunk_index"
        )
        while rows := cursor.fetchmany(batch_rows):
            yield from rows

    def clear_messages(self) -> None:
        """Delete all raw messages (used after consolidation to save memory)."""
        self._write("clear_messages",
                    lambda: self.connection.execute("DELETE FROM messages"))

    # ------------------------------------------------------------------ #
    # consolidated processes
    # ------------------------------------------------------------------ #
    def insert_processes(self, records: Iterable[ProcessRecord]) -> int:
        """Insert consolidated per-process records (idempotent per process key).

        Delegates to :meth:`insert_or_replace_processes`: the ``processes``
        table is unique per ``(jobid, stepid, pid, hash, host, time)``, so
        re-consolidating the same store updates rows in place instead of
        accumulating duplicates.
        """
        return self.insert_or_replace_processes(records)

    def insert_or_replace_processes(self, records: Iterable[ProcessRecord]) -> int:
        """Upsert consolidated records, keyed by the unique process header.

        Re-consolidating the same store (e.g. repeated
        :meth:`~repro.core.framework.SirenFramework.consolidate` calls while
        messages keep arriving) rebuilds records from *more* data each time,
        so the newest build replaces the previous row.
        """
        return self._insert_processes("INSERT OR REPLACE", records)

    def insert_processes_if_absent(self, records: Iterable[ProcessRecord]) -> int:
        """Insert consolidated records, keeping any existing row per key.

        The streaming-ingest flush primitive: the *first* close of a process
        group carries all of its data (on an ordered transport, only a
        content-free late ``PROCEND`` can ever resurrect a key), so an
        already-present row must win.  Returns how many rows were actually
        inserted.
        """
        return self._insert_processes("INSERT OR IGNORE", records)

    def _insert_processes(self, verb: str, records: Iterable[ProcessRecord]) -> int:
        """Write ``records`` as rows; returns how many rows that wrote (a
        replaced row counts once, an ignored one not at all)."""
        placeholders = ", ".join("?" for _ in PROCESS_FIELDS)
        records = list(records)
        rows = [process_row(record) for record in records]
        written = self._write("insert_processes", lambda: self.connection.executemany(
            f"{verb} INTO processes ({_PROCESS_COLUMNS}) VALUES ({placeholders})", rows
        ))
        if self.tiered is not None and rows:
            delta = None
            if verb == "INSERT OR IGNORE" and written == len(rows):
                # Every row was new and distinct.  If they also took exactly
                # the rowids after the tier's cursor, the batch *is* what
                # load_processes_since(cursor) would read back, in its order.
                (last,) = self.connection.execute(
                    "SELECT last_insert_rowid()").fetchone()
                if last - len(rows) == self._tiered_cursor:
                    delta = records, last
            self.sync_tiered(delta)
        return written

    def attach_tiered(self, tiered: "TieredStore") -> None:
        """Keep ``tiered`` in sync with every consolidated-record write.

        Records already in the ``processes`` table are folded in immediately;
        afterwards each write through :meth:`insert_or_replace_processes` /
        :meth:`insert_processes_if_absent` triggers a :meth:`sync_tiered`
        delta pull.  Both record paths -- the batch consolidator and the
        streaming-ingest flush -- go through that chokepoint, so the silver
        and gold tiers never lag the ``processes`` table.
        """
        self.tiered = tiered
        self._tiered_cursor = 0
        self.sync_tiered()

    def sync_tiered(
            self, delta: tuple[list[ProcessRecord], int] | None = None) -> int:
        """Fold new ``processes`` rows into the attached tiered store.

        The delta is the rowid stream :meth:`load_processes_since` gives the
        live analysis layer, read from the tier's cursor -- that read is the
        definition.  ``delta`` is the same ``(records, high-water mark)``
        pair when the writer already holds it: :meth:`_insert_processes`
        passes the batch it just wrote when every row of it was new and the
        tier was not behind, and nobody else should.  ``INSERT OR REPLACE``
        re-consolidation assigns new rowids to existing keys, so re-delivered
        rows reach the tiered store again -- its key-idempotent ingest
        dedups unchanged content and supersedes changed content.  The cursor
        moves only once the tier has stored the delta, so a sync that raises
        is repeated by the next one.  Returns how many records the delta
        carried.
        """
        if self.tiered is None:
            return 0
        records, high_water = delta or self.load_processes_since(self._tiered_cursor)
        if records:
            self.tiered.ingest_records(records)
        self._tiered_cursor = high_water
        return len(records)

    def process_count(self) -> int:
        """Total number of consolidated process records."""
        cursor = self.connection.execute("SELECT COUNT(*) FROM processes")
        return int(cursor.fetchone()[0])

    def iter_processes(self) -> Iterator[ProcessRecord]:
        """Iterate over consolidated process records."""
        cursor = self.connection.execute(f"SELECT {_PROCESS_COLUMNS} FROM processes")
        for row in cursor:
            yield ProcessRecord(*row)

    def load_processes(self) -> list[ProcessRecord]:
        """All consolidated process records as a list."""
        return list(self.iter_processes())

    def load_processes_since(self, rowid: int = 0) -> tuple[list[ProcessRecord], int]:
        """Records inserted after ``rowid``, plus the new high-water mark.

        The monotonic record cursor of the live analysis layer: ``rowid`` is
        the ``processes`` rowid high-water mark returned by the previous call
        (0 for "from the beginning"), and the returned mark covers every
        record in this batch.  The contract -- each record is returned by
        exactly one call -- holds for rows written through the streaming
        first-close-wins insert (:meth:`insert_processes_if_absent`), which
        never rewrites an existing row; ``INSERT OR REPLACE``
        re-consolidation assigns *new* rowids to existing process keys, so
        batch-mode callers must diff by process key instead (see
        :meth:`repro.analysis.live.LiveAnalysis.observe`).
        """
        cursor = self.connection.execute(
            f"SELECT {_PROCESS_COLUMNS}, id FROM processes WHERE id > ? ORDER BY id",
            (rowid,))
        records: list[ProcessRecord] = []
        high_water = rowid
        for *row, high_water in cursor:
            records.append(ProcessRecord(*row))
        return records, high_water

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    def __enter__(self) -> "MessageStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
