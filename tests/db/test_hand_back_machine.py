"""A state machine over the records ``MessageStore`` hands back.

The store keeps every record its connection inserted while each if-absent
batch was written in full, and serves ``load_processes`` and
``load_processes_since`` from that list while the table's highest rowid is
its length.  The rules are the writes that keep or end the list -- if-absent
batches that are all new, ones that carry an already-present or a repeated
key, a write that fails, and a row written by a second connection to the
same on-disk database -- and reads: whole-table reads, and pulls by two
interleaved consumers, each with its last mark, a stale mark (a consumer
that failed to apply its delta pulls again) or 0.

Every answer equals a plain SQL read of the rows past the cursor, and a
read is served, with the very objects inserted, iff no write was partial
and no other connection wrote a row.  A served read of an on-disk store
asks only for the highest rowid; a ``:memory:`` store, which no other
connection can reach, runs its machine without that rule and serves
without a statement.
"""

import os
import shutil
import sqlite3
import tempfile
from itertools import count

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.store import PROCESS_FIELDS, MessageStore, ProcessRecord

_SELECT_SINCE = (f"SELECT {', '.join(PROCESS_FIELDS)}, id FROM processes"
                 " WHERE id > ? ORDER BY id")
_HIGHEST = "SELECT MAX(id) FROM processes"


def _reference(store: MessageStore, rowid: int) -> tuple[list[ProcessRecord], int]:
    """What ``load_processes_since(rowid)`` must answer: the table read."""
    rows = store.connection.execute(_SELECT_SINCE, (rowid,)).fetchall()
    return [ProcessRecord(*row[:-1]) for row in rows], (rows[-1][-1] if rows else rowid)


def _record(pid: int, version: int = 0) -> ProcessRecord:
    return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="h", host="n1",
                         time=100, executable=f"/usr/bin/tool{version}")


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


class _HandBack(RuleBasedStateMachine):
    """The rules every store shares, over the store :meth:`_open` returns."""

    def __init__(self) -> None:
        super().__init__()
        self.store = self._open()
        #: the statements of the store read in progress
        self.statements: list[str] = []
        self.store.connection.set_trace_callback(self.statements.append)
        self.pids = count()
        self.present: list[int] = []      #: pids the table holds
        #: consumer -> the marks its pulls returned, oldest first
        self.marks: dict[str, list[int]] = {"a": [0], "b": [0]}
        #: the objects inserted, in order, while every write was this
        #: connection's and written in full (``None`` after one was not)
        self.written: list[ProcessRecord] | None = []

    def _open(self) -> MessageStore:
        raise NotImplementedError

    def _read(self, read):
        """``read()``, and the statements it ran on ``processes``."""
        del self.statements[:]
        answer = read()
        return answer, [sql for sql in self.statements if "FROM processes" in sql]

    def _check(self, records: list[ProcessRecord], served: list[ProcessRecord] | None,
               reads: list[str]):
        """``records`` are ``served`` themselves, read for at most the check
        of the highest rowid, or (not served) all fresh."""
        if served is not None:
            assert reads == self.served_reads
            assert len(records) == len(served)
            assert all(mine is theirs for mine, theirs in zip(records, served))
        else:
            mine = {id(record) for record in self.written or ()}
            assert not any(id(record) in mine for record in records)

    @rule(size=st.integers(0, 6))
    def insert_new(self, size):
        batch = [_record(next(self.pids)) for _ in range(size)]
        assert self.store.insert_processes_if_absent(batch) == size
        self.present += [record.pid for record in batch]
        if self.written is not None:
            self.written += batch

    @rule(size=st.integers(0, 3), repeat=st.booleans(), version=st.integers(1, 3),
          data=st.data())
    def insert_with_a_duplicate(self, size, repeat, version, data):
        batch = [_record(next(self.pids)) for _ in range(size)]
        if repeat or not self.present:
            batch += [_record(next(self.pids))] * 2      # repeated in the batch
        else:                                             # already present
            batch.append(_record(data.draw(st.sampled_from(self.present)), version))
        assert self.store.insert_processes_if_absent(batch) < len(batch)
        self.present += [record.pid for record in batch if record.pid not in self.present]
        self.written = None

    @rule(size=st.integers(1, 3))
    def failing_insert(self, size):
        batch = [_record(next(self.pids)) for _ in range(size)]
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
        (records, mark), reads = self._read(lambda: self.store.load_processes_since(rowid))
        assert (records, mark) == expected
        self._check(records, None if self.written is None else self.written[rowid:], reads)
        marks.append(mark)

    @rule()
    def load_all(self):
        records, reads = self._read(self.store.load_processes)
        assert records == _reference(self.store, 0)[0]
        self._check(records, self.written, reads)

    @invariant()
    def every_consumer_is_answered_as_the_table(self):
        for marks in self.marks.values():
            rowid = marks[-1]
            expected = _reference(self.store, rowid)
            answer, reads = self._read(lambda: self.store.load_processes_since(rowid))
            assert answer == expected
            self._check(answer[0], None if self.written is None
                        else self.written[rowid:], reads)

    def teardown(self) -> None:
        self.store.close()


class HandBackMachine(_HandBack):
    """An on-disk store, which a second connection may write."""

    served_reads = [_HIGHEST]

    def _open(self) -> MessageStore:
        self.directory = tempfile.mkdtemp(prefix="siren-hand-back-")
        self.path = os.path.join(self.directory, "siren.db")
        return MessageStore(self.path)

    @rule()
    def another_connection_writes(self):
        pid = next(self.pids)
        with MessageStore(self.path) as other:
            assert other.insert_processes_if_absent([_record(pid)]) == 1
        self.present.append(pid)
        self.written = None

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(self.directory, ignore_errors=True)


class PrivateHandBackMachine(_HandBack):
    """A ``:memory:`` store: no other connection can reach its table."""

    served_reads: list[str] = []

    def _open(self) -> MessageStore:
        return MessageStore()


HandBackMachine.TestCase.settings = settings(max_examples=80, stateful_step_count=30,
                                             deadline=None)
TestHandBackMachine = HandBackMachine.TestCase
PrivateHandBackMachine.TestCase.settings = HandBackMachine.TestCase.settings
TestPrivateHandBackMachine = PrivateHandBackMachine.TestCase


def _serve_every_reader(store: MessageStore) -> list[str]:
    """A returning reader, a second consumer and a stale cursor all get the
    inserted objects back; returns the statements they ran on ``processes``."""
    batches = [[_record(pid) for pid in range(low, low + 7)] for low in range(0, 700, 7)]
    store.insert_processes_if_absent(batches[0])
    first, mark = store.load_processes_since(0)
    statements: list[str] = []
    store.connection.set_trace_callback(statements.append)
    for batch in batches[1:]:
        store.insert_processes_if_absent(batch)
    inserted = [record for batch in batches for record in batch]
    returning, last = store.load_processes_since(mark)          # stopped pulling, came back
    second, _ = store.load_processes_since(0)                   # a second consumer
    stale, _ = store.load_processes_since(mark - 3)             # a stale cursor
    assert (mark, last) == (7, 700)
    for records, expected in ((first, inserted[:7]), (returning, inserted[7:]),
                              (second, inserted), (stale, inserted[4:])):
        assert len(records) == len(expected)
        assert all(mine is theirs for mine, theirs in zip(records, expected))
    return [sql for sql in statements if "FROM processes" in sql]


def test_every_reader_is_served_from_memory():
    """A ``:memory:`` store serves every reader without a statement."""
    assert _serve_every_reader(MessageStore()) == []


def test_every_reader_of_an_on_disk_store_asks_for_the_highest_rowid(tmp_path):
    """An on-disk store, which another connection could write, checks the
    highest rowid once a read, and selects no row."""
    with MessageStore(str(tmp_path / "siren.db")) as store:
        assert _serve_every_reader(store) == [_HIGHEST] * 3


def test_a_row_written_by_another_connection_is_read_from_the_table(tmp_path):
    """The list holds this connection's writes only: a row another writer
    added since makes every later read go to the table."""
    path = str(tmp_path / "siren.db")
    store = MessageStore(path)
    store.insert_processes_if_absent([_record(0)])
    _first, mark = store.load_processes_since(0)
    store.insert_processes_if_absent([_record(1)])
    with MessageStore(path) as other:
        other.insert_processes_if_absent([_record(2)])
    records, new_mark = store.load_processes_since(mark)
    assert ([record.pid for record in records], new_mark) == ([1, 2], 3)
    store.insert_processes_if_absent([_record(3)])
    assert [record.pid for record in store.load_processes()] == [0, 1, 2, 3]
    store.close()
