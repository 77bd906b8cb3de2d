"""SQLite-backed storage for raw messages and consolidated process records.

The store is intentionally close to the paper's description: one table of raw
UDP messages keyed by the header columns, and (after post-processing) one
table with a single consolidated row per process.  An in-memory database is
the default; pass a path to persist to disk.

Write paths retry transient SQLite failures (``database is locked`` /
``database table is locked`` / busy-style :class:`sqlite3.OperationalError`)
with jittered exponential backoff, so a WAL store shared with concurrent
readers survives lock contention instead of aborting consolidation; the
budget is the constant :data:`WRITE_RETRY` and non-transient errors (disk
full, corrupt database) still fail fast.  The
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
from repro.transport.messages import MessageRow
from repro.util.retry import RetryPolicy

#: Substrings marking an :class:`sqlite3.OperationalError` as transient --
#: lock/busy contention clears on its own, so a bounded retry is the right
#: response; anything else ("disk is full", "database disk image is
#: malformed", ...) will not heal by waiting and fails fast.
_TRANSIENT_MARKERS = ("locked", "busy")


#: The backoff budget of every write path against a *transient* error.
WRITE_RETRY = RetryPolicy()


def is_transient_sqlite_error(error: sqlite3.OperationalError) -> bool:
    """Whether the error is contention that a bounded retry can outwait."""
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)


#: The canonical process key: a record's identity and -- sorted -- the order
#: ingest returns records in.
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
#: A record's process key, as :attr:`ProcessRecord.key` but without the
#: property call: the sort key of every ordered record list.
process_key = attrgetter(*PROCESS_FIELDS[:6])
#: The ``processes`` column list in the same order, so an inserted row is
#: ``process_row(record)`` and a selected one ``ProcessRecord(*row)``.
_PROCESS_COLUMNS = ", ".join(PROCESS_FIELDS)


class MessageStore:
    """SQLite wrapper holding the ``messages`` and ``processes`` tables.

    Parameters
    ----------
    path:
        SQLite path; ``":memory:"`` keeps everything in RAM.

    Every write path retries a *transient* :class:`sqlite3.OperationalError`
    (lock/busy contention) within :data:`WRITE_RETRY`, read at each write.
    Retries count into :attr:`write_retries`; exhausting the budget (or
    hitting a non-transient error such as disk-full) re-raises the original
    SQLite error.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        #: Transient write failures retried so far (visible in statistics).
        self.write_retries = 0
        #: Chaos hook (:mod:`repro.faults`): called with the operation name
        #: before every write transaction; an :class:`sqlite3.OperationalError`
        #: it raises goes through exactly the retry path a real one would.
        self.fault_injector: Callable[[str], None] | None = None
        self._sleep = time.sleep          # injectable for tests
        self._retry_rng = random.Random(0xC0FFEE)  # jitter only; not output-visible
        #: Attached gold rollups, kept in step with every consolidated-record
        #: write; see :meth:`attach_tiered`.
        self.tiered: TieredStore | None = None
        #: The delta tail (:meth:`load_processes_since`): the records written
        #: in full since the mark ``_tail_from`` the last pull returned, whose
        #: last rowid is ``_tail_mark``; ``None`` while no reader is served
        #: from memory.
        self._tail: list[ProcessRecord] | None = None
        self._tail_from = self._tail_mark = 0
        #: The rowid of the last row of the last consolidated-record batch
        #: written in full (``None`` before the first); see
        #: :meth:`process_extent`.
        self.written_mark: int | None = None
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
        self.connection.executescript(MESSAGES_SCHEMA)
        self.connection.executescript(PROCESSES_SCHEMA)

    # ------------------------------------------------------------------ #
    # fault-tolerant write primitive
    # ------------------------------------------------------------------ #
    def _write(self, operation: str, transaction: Callable[[], object]) -> int:
        """Run one write transaction, retrying transient SQLite failures.

        ``transaction`` executes inside ``with self.connection`` so a failed
        attempt rolls back cleanly before the retry; the sleep between
        attempts grows exponentially with deterministic jitter, within
        :data:`WRITE_RETRY`, read here on every call.  Returns how many rows the
        attempt that committed inserted, updated or deleted.
        """
        attempt = 0
        while True:
            try:
                if self.fault_injector is not None:
                    self.fault_injector(operation)
                with self.connection:
                    before = self.connection.total_changes
                    transaction()
                    return self.connection.total_changes - before
            except sqlite3.OperationalError as error:
                if not is_transient_sqlite_error(error) or attempt >= WRITE_RETRY.attempts:
                    raise
                self.write_retries += 1
                self._sleep(WRITE_RETRY.delay(attempt, self._retry_rng))
                attempt += 1

    # ------------------------------------------------------------------ #
    # raw messages
    # ------------------------------------------------------------------ #
    def insert_rows(self, rows: list[MessageRow]) -> int:
        """Insert raw message rows as they are; returns how many were inserted."""
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

    # ------------------------------------------------------------------ #
    # consolidated processes
    # ------------------------------------------------------------------ #
    def insert_processes_if_absent(self, records: Iterable[ProcessRecord]) -> int:
        """Insert consolidated records, keeping any existing row per key.

        The streaming-ingest flush primitive: the *first* close of a process
        group carries all of its data (on an ordered transport, only a
        content-free late ``PROCEND`` can ever resurrect a key), so an
        already-present row must win.  Returns how many rows were actually
        inserted.
        """
        placeholders = ", ".join("?" for _ in PROCESS_FIELDS)
        records = list(records)
        rows = [process_row(record) for record in records]
        written = self._write("insert_processes", lambda: self.connection.executemany(
            f"INSERT OR IGNORE INTO processes ({_PROCESS_COLUMNS}) VALUES ({placeholders})",
            rows))
        # The change count equals the batch length only if every row was new
        # and distinct: then the batch is exactly what the table gained, in
        # rowid order.  An ignored row needs a re-read.
        handed = written == len(rows)
        if handed and records:
            self.written_mark = self.connection.execute(
                "SELECT last_insert_rowid()").fetchone()[0]
        tail = self._tail
        if tail is not None:
            if not handed or len(tail) + len(records) > self._tail_from:
                self._tail = None
            elif records:
                tail.extend(records)
                self._tail_mark = self.written_mark
        if self.tiered is not None and rows:
            self.sync_tiered(records if handed else None)
        return written

    def attach_tiered(self, tiered: "TieredStore") -> None:
        """Keep ``tiered``'s gold in step with every consolidated-record write.

        Gold is refolded from the ``processes`` table now; afterwards every
        :meth:`insert_processes_if_absent` write ends in
        :meth:`sync_tiered`.  A write that raises folds nothing, so gold
        never runs ahead of the table.
        """
        self.tiered = tiered
        self.sync_tiered()

    def sync_tiered(self, records: list[ProcessRecord] | None = None) -> None:
        """Bring the attached gold up to date with ``processes``.

        ``records`` is a batch :meth:`insert_processes_if_absent` has just
        written in full, and is folded in as it is; ``None`` refolds gold
        from :meth:`load_processes` (counted in ``rollup_rebuilds``).
        """
        if self.tiered is None:
            return
        if records is None:
            self.tiered.rebuild(self.load_processes())
        else:
            self.tiered.fold(records)

    def process_count(self) -> int:
        """Total number of consolidated process records."""
        cursor = self.connection.execute("SELECT COUNT(*) FROM processes")
        return int(cursor.fetchone()[0])

    def process_extent(self) -> tuple[int, int | None]:
        """``(row count, highest rowid)`` of ``processes``, in one query.

        Rowids are never reused (``AUTOINCREMENT``).  A writer compares this
        with how many rows it wrote and the :attr:`written_mark` of its last
        batch: any other answer means someone else has written to the table.
        """
        return self.connection.execute("SELECT COUNT(*), MAX(id) FROM processes").fetchone()

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
        exactly one call -- holds because the one record write, the
        first-close-wins insert (:meth:`insert_processes_if_absent`), never
        rewrites an existing row.

        A pull whose ``rowid`` is the mark the previous pull returned is
        served from memory: the store keeps the records of every batch
        :meth:`insert_processes_if_absent` wrote in full since that pull (the
        *tail*) and returns those very objects, without selecting a row.
        Any other ``rowid`` -- 0, a second consumer's mark, a stale one a
        consumer re-pulls after failing to apply a delta -- reads the table,
        and so does every pull after a write that was not written in full
        (an ignored row) or not by this connection (the table's
        last rowid is not the tail's).  The tail lives only between pulls:
        none is kept before the first, and it is dropped -- the next pull
        reads the table -- once it would hold more records than the mark it
        trails, so a reader that stops pulling leaves at most as many
        records in memory as the table held when it last pulled.
        """
        if (self._tail is not None and rowid == self._tail_from
                and self.connection.execute("SELECT MAX(id) FROM processes"
                                            ).fetchone()[0] == self._tail_mark):
            records, high_water = self._tail, self._tail_mark
        else:
            cursor = self.connection.execute(
                f"SELECT {_PROCESS_COLUMNS}, id FROM processes WHERE id > ? ORDER BY id",
                (rowid,))
            records = []
            high_water = rowid
            for *row, high_water in cursor:
                records.append(ProcessRecord(*row))
        self._tail, self._tail_from, self._tail_mark = [], high_water, high_water
        return records, high_water

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    def __enter__(self) -> "MessageStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
