"""SQLite-backed storage for raw messages and consolidated process records.

The store is intentionally close to the paper's description: one table of raw
UDP messages keyed by the header columns, and (after post-processing) one
table with a single consolidated row per process.  An in-memory database is
the default; pass a path to persist to disk.

Write paths retry transient SQLite failures (``database is locked`` /
``database table is locked`` / busy-style :class:`sqlite3.OperationalError`)
with jittered exponential backoff, so a WAL store shared with concurrent
readers survives lock contention instead of aborting consolidation; the
budget is :data:`RETRY_ATTEMPTS` retries on the :func:`retry_delay`
schedule, and non-transient errors (disk full, corrupt database) still fail
fast.  The ``fault_injector`` hook lets the simulated faults
(:mod:`repro.hpcsim.faults`) inject deterministic store faults without
patching SQLite itself.
"""

from __future__ import annotations

import random
import sqlite3
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.db.schema import MESSAGES_SCHEMA, PROCESSES_SCHEMA

if TYPE_CHECKING:  # imported lazily: repro.db.tiered imports this module
    from repro.db.tiered import TieredStore
from repro.transport.messages import MessageRow

#: Substrings marking an :class:`sqlite3.OperationalError` as transient --
#: lock/busy contention clears on its own, so a bounded retry is the right
#: response; anything else ("disk is full", "database disk image is
#: malformed", ...) will not heal by waiting and fails fast.
_TRANSIENT_MARKERS = ("locked", "busy")

#: Retries of a write after its first try against a *transient* error (0:
#: the first failure propagates); read at every write.
RETRY_ATTEMPTS = 4
#: The backoff schedule: seconds before the first retry, the factor each
#: retry multiplies it by, the cap on any one sleep (jitter included), and the
#: fraction of the nominal delay the seeded jitter adds or subtracts, so
#: writers contending for one lock do not retry in lockstep.
RETRY_BASE_DELAY = 0.005
RETRY_GROWTH = 2.0
RETRY_MAX_DELAY = 0.25
RETRY_JITTER = 0.5


def retry_delay(attempt: int, rng: random.Random | None = None) -> float:
    """Seconds to sleep before retry number ``attempt`` (0-based); without an
    ``rng``, the nominal delay."""
    nominal = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * RETRY_GROWTH ** attempt)
    if rng is not None:
        nominal *= 1.0 + RETRY_JITTER * (2.0 * rng.random() - 1.0)
    return min(RETRY_MAX_DELAY, nominal)


def is_transient_sqlite_error(error: sqlite3.OperationalError) -> bool:
    """Whether the error is contention that a bounded retry can outwait."""
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)


#: The canonical process key: a record's identity and -- sorted -- the order
#: ingest returns records in.
ProcessKey = tuple[str, str, int, str, str, int]


@dataclass(slots=True)
class ProcessRecord:
    """One consolidated per-process record (the unit of all analyses).

    Slotted: a record carries no ``__dict__``; copy one with
    :func:`dataclasses.replace`.
    """

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
    (lock/busy contention) up to :data:`RETRY_ATTEMPTS` times, read at each
    write.  Retries count into :attr:`write_retries`; exhausting the budget
    (or hitting a non-transient error such as disk-full) re-raises the
    original SQLite error.  Reads hand back the records this connection
    wrote while they are the whole table (:meth:`load_processes_since`).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        #: Transient write failures retried so far (visible in statistics).
        self.write_retries = 0
        #: Chaos hook (:mod:`repro.hpcsim.faults`): called with the operation
        #: name before every write transaction; an
        #: :class:`sqlite3.OperationalError` it raises goes through exactly
        #: the retry path a real one would.
        self.fault_injector: Callable[[str], None] | None = None
        self._sleep = time.sleep          # injectable for tests
        self._retry_rng = random.Random(0xC0FFEE)  # jitter only; not output-visible
        #: Attached gold rollups, kept in step with every consolidated-record
        #: write; see :meth:`attach_tiered`.
        self.tiered: TieredStore | None = None
        #: Every record this connection inserted, in rowid order, while each
        #: if-absent batch was written in full; ``None`` after the first that
        #: was not.
        self._written: list[ProcessRecord] | None = []
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
        attempts follows :func:`retry_delay`, for at most
        :data:`RETRY_ATTEMPTS` retries, read here on every call.  Returns how
        many rows the attempt that committed inserted, updated or deleted.
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
                if not is_transient_sqlite_error(error) or attempt >= RETRY_ATTEMPTS:
                    raise
                self.write_retries += 1
                self._sleep(retry_delay(attempt, self._retry_rng))
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
        # rowid order.  An ignored row still takes a rowid, so it ends the
        # list of written records: every read after it goes to the table.
        handed = written == len(rows)
        if not handed:
            self._written = None
        elif self._written is not None:
            self._written.extend(records)
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

    def load_processes(self) -> list[ProcessRecord]:
        """All consolidated process records as a list, in rowid order."""
        return self.load_processes_since()[0]

    def load_processes_since(self, rowid: int = 0) -> tuple[list[ProcessRecord], int]:
        """Records inserted after ``rowid``, plus the new high-water mark.

        The monotonic record cursor of the live analysis layer: ``rowid`` is
        the ``processes`` rowid high-water mark returned by the previous call
        (0 for "from the beginning"), and the returned mark covers every
        record in this batch.  The contract -- each record is returned by
        exactly one call -- holds because the one record write, the
        first-close-wins insert (:meth:`insert_processes_if_absent`), never
        rewrites an existing row.

        Rowids count up from 1 (``AUTOINCREMENT``) and nothing deletes a row,
        so while the highest rowid is the length of the written list, the
        table is that list: rowid ``n`` is its ``n``-th record.  Then any
        ``rowid`` from 0 to that length -- a consumer's last mark, a second
        consumer's, a stale one re-pulled after failing to apply a delta --
        is answered with the very objects written past it, for one
        ``SELECT MAX(id)``.  A row another connection wrote, or one already
        there when this store opened, pushes the highest rowid past the
        list, and every pull reads the rows past ``rowid``.  A ``:memory:``
        database is private to its connection and opens empty, so neither
        can happen there: while the list is whole, it is answered without a
        statement.  Records read from SQL share one object per distinct
        value, as records built in one ingest epoch do.
        """
        written = self._written
        if written is not None and 0 <= rowid <= len(written) and (
                self.path == ":memory:" or (self.connection.execute(
                    "SELECT MAX(id) FROM processes").fetchone()[0] or 0) == len(written)):
            return written[rowid:], len(written)
        rows = self.connection.execute(
            f"SELECT {_PROCESS_COLUMNS}, id FROM processes WHERE id > ? ORDER BY id",
            (rowid,)).fetchall()
        values: dict[Any, Any] = {}
        share = values.setdefault
        return ([ProcessRecord(*map(share, row[:-1], row[:-1])) for row in rows],
                rows[-1][-1] if rows else rowid)

    def close(self) -> None:
        """Close the underlying connection."""
        self.connection.close()

    def __enter__(self) -> "MessageStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
