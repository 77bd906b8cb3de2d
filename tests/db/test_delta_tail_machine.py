"""A state machine over the delta cursor of ``MessageStore``.

``load_processes_since`` serves a pull from memory when its cursor is the
mark the previous pull returned and every write since was a batch the
first-close-wins insert wrote in full; any other pull reads the table.  The
rules are the writes that keep or end that tail -- if-absent batches that
are all new, ones that carry an already-present or a repeated key, and a
write that fails -- and pulls by two
interleaved consumers, each with its last mark, a stale mark (a consumer
that failed to apply its delta pulls again) or 0.

After every pull the answer equals a plain SQL read of the rows past the
cursor, and a pull the tail must serve returns the inserted objects
themselves.  The tail is never longer than the mark it trails, so a reader
that stops pulling holds a bounded number of records.
"""

import sqlite3
from itertools import count

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.store import PROCESS_FIELDS, MessageStore, ProcessRecord

_SELECT_SINCE = (f"SELECT {', '.join(PROCESS_FIELDS)}, id FROM processes"
                 " WHERE id > ? ORDER BY id")


def _reference(store: MessageStore, rowid: int) -> tuple[list[ProcessRecord], int]:
    """What ``load_processes_since(rowid)`` must answer: the table read."""
    rows = store.connection.execute(_SELECT_SINCE, (rowid,)).fetchall()
    return [ProcessRecord(*row[:-1]) for row in rows], (rows[-1][-1] if rows else rowid)


class _FailingConnection:
    """A connection whose writes raise ``database or disk is full``."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection = connection

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc):
        return self._connection.__exit__(*exc)

    def executemany(self, sql, rows):
        raise sqlite3.OperationalError("database or disk is full")


class DeltaTailMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = MessageStore()
        self.pids = count()
        self.present: list[int] = []      #: pids the table holds
        #: consumer -> the marks its pulls returned, oldest first
        self.marks: dict[str, list[int]] = {"a": [0], "b": [0]}
        #: the mark the last pull returned and the objects written in full
        #: since (``None``: a write since was not, or outgrew the mark)
        self.last_mark: int | None = None
        self.tail: list[ProcessRecord] | None = None

    def _record(self, pid: int, version: int = 0) -> ProcessRecord:
        return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="h", host="n1",
                             time=100, executable=f"/usr/bin/tool{version}")

    def _written(self, batch: list[ProcessRecord], in_full: bool) -> None:
        if self.tail is None:
            return
        if in_full and len(self.tail) + len(batch) <= self.last_mark:
            self.tail.extend(batch)
        else:
            self.tail = None

    @rule(size=st.integers(0, 6))
    def insert_new(self, size):
        batch = [self._record(next(self.pids)) for _ in range(size)]
        assert self.store.insert_processes_if_absent(batch) == size
        self.present += [record.pid for record in batch]
        self._written(batch, in_full=True)

    @rule(size=st.integers(0, 3), repeat=st.booleans(), version=st.integers(1, 3),
          data=st.data())
    def insert_with_a_duplicate(self, size, repeat, version, data):
        batch = [self._record(next(self.pids)) for _ in range(size)]
        if repeat or not self.present:
            batch += [self._record(next(self.pids))] * 2      # repeated in the batch
        else:                                                   # already present
            batch.append(self._record(data.draw(st.sampled_from(self.present)), version))
        assert self.store.insert_processes_if_absent(batch) < len(batch)
        self.present += [record.pid for record in batch if record.pid not in self.present]
        self._written(batch, in_full=False)

    @rule(size=st.integers(1, 3))
    def failing_insert(self, size):
        batch = [self._record(next(self.pids)) for _ in range(size)]
        connection = self.store.connection
        self.store.connection = _FailingConnection(connection)
        try:
            with pytest.raises(sqlite3.OperationalError):
                self.store.insert_processes_if_absent(batch)
        finally:
            self.store.connection = connection

    @rule(consumer=st.sampled_from(["a", "b"]),
          cursor=st.sampled_from(["last", "stale", "zero"]))
    def pull(self, consumer, cursor):
        marks = self.marks[consumer]
        rowid = {"last": marks[-1], "stale": marks[-2] if len(marks) > 1 else 0,
                 "zero": 0}[cursor]
        expected = _reference(self.store, rowid)
        served_from_memory = self.tail is not None and rowid == self.last_mark
        tail = self.tail
        records, mark = self.store.load_processes_since(rowid)
        assert (records, mark) == expected
        if served_from_memory:
            assert len(records) == len(tail)
            assert all(mine is theirs for mine, theirs in zip(records, tail))
        marks.append(mark)
        self.last_mark, self.tail = mark, []

    @invariant()
    def the_tail_is_bounded_by_its_mark(self):
        tail = self.store._tail
        assert (tail is None) == (self.tail is None)
        if tail is not None:
            assert len(tail) <= self.store._tail_from == self.last_mark

    def teardown(self) -> None:
        self.store.close()


DeltaTailMachine.TestCase.settings = settings(max_examples=80, stateful_step_count=30,
                                              deadline=None)
TestDeltaTailMachine = DeltaTailMachine.TestCase


def _record(pid: int) -> ProcessRecord:
    return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="h", host="n1", time=100)


def test_no_tail_is_kept_before_the_first_pull():
    """A store nobody pulls from (a replay, a campaign) holds no records."""
    store = MessageStore()
    for low in range(0, 400, 50):
        store.insert_processes_if_absent([_record(pid) for pid in range(low, low + 50)])
    assert store._tail is None


def test_a_reader_that_stops_pulling_loses_its_tail():
    """The tail never holds more records than the mark it trails; the reader
    that comes back reads the table and gets every record once."""
    store = MessageStore()
    store.insert_processes_if_absent([_record(pid) for pid in range(10)])
    first, mark = store.load_processes_since(0)
    assert (len(first), mark) == (10, 10)
    for low in range(10, 1000, 7):
        store.insert_processes_if_absent([_record(pid) for pid in range(low, low + 7)])
        assert store._tail is None or len(store._tail) <= 10
    assert store._tail is None
    rest, mark = store.load_processes_since(mark)
    assert [record.pid for record in rest] == list(range(10, 1004))
    assert mark == 1004


def test_a_row_written_by_another_connection_is_read_from_the_table(tmp_path):
    """The tail holds this connection's writes only: a row another writer
    added since makes the next pull read the table."""
    path = str(tmp_path / "siren.db")
    store = MessageStore(path)
    store.insert_processes_if_absent([_record(0)])
    _first, mark = store.load_processes_since(0)
    store.insert_processes_if_absent([_record(1)])
    with MessageStore(path) as other:
        other.insert_processes_if_absent([_record(2)])
    records, new_mark = store.load_processes_since(mark)
    assert ([record.pid for record in records], new_mark) == ([1, 2], 3)
    store.close()
