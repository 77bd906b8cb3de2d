"""A state machine over ``MessageStore`` with an attached ``TieredStore``.

Every public verb that changes what gold must reflect is a rule: the
first-close-wins insert (over a key pool of eight, so keys collide within
and across batches, and one pool entry is the content-free record a late
``PROCEND`` resurrects), ``attach_tiered`` on a non-empty table, and closing
and reopening the on-disk store.  Any write may carry a fault: a connection
proxy whose next ``executemany`` calls raise inside the transaction, either
``database is locked`` (retried by the store; it succeeds if the burst fits
the retry budget) or ``database or disk is full`` (fails at once).

After every step the ``processes`` table equals a plain-dict model of the
writes that did not raise, gold reflects exactly its rows, and all four
gold tables equal the batch recompute (``tests/oracles/tables.py``) over the
key-sorted table: gold never runs ahead of ``processes`` and never lags it.
"""

import os
import shutil
import sqlite3
import tempfile
from operator import attrgetter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.db.store import RETRY_ATTEMPTS, MessageStore, ProcessRecord
from repro.db.tiered import build_tiered_store

from oracles import tables

_USERS = {1000: "user_1", 1001: "user_2"}
_DISK_FULL = "database or disk is full"
_LOCKED = "database is locked"

#: (executable, category); the last entry is a resurrected key's record
_RUNS = (("/usr/bin/bash", "system"), ("/usr/bin/grep", "system"),
         ("/usr/bin/python3", "python"), ("/home/p/app", "user"), ("", ""))
_OBJECTS = ("/lib64/libc.so.6\n/lib64/libtinfo.so.6", "/lib64/libc.so.6", "")


def _record(jobid: str, pid: int, run: tuple[str, str], objects: str,
            uid: int | None) -> ProcessRecord:
    executable, category = run
    return ProcessRecord(
        jobid=jobid, stepid="0", pid=pid, hash="h", host="n1", time=100,
        uid=uid, executable=executable, category=category, objects=objects,
        objects_h=f"oh{len(objects)}" if objects else "",
        script_h="sh" if category == "python" else "")


_records = st.builds(_record, st.sampled_from(["1", "2"]), st.integers(0, 3),
                     st.sampled_from(_RUNS), st.sampled_from(_OBJECTS),
                     st.sampled_from([None, *_USERS]))
_batches = st.lists(_records, max_size=5)
#: ``None``, or ``(message, failures)``: the next ``failures`` write
#: statements raise ``message``
_faults = st.none() | st.tuples(st.sampled_from([_LOCKED, _DISK_FULL]),
                                st.integers(1, 6))


class _RaisingConnection:
    """A connection whose next ``failures`` ``executemany`` calls raise
    ``OperationalError(message)`` inside the open transaction."""

    def __init__(self, connection: sqlite3.Connection, message: str,
                 failures: int) -> None:
        self._connection, self._message, self._failures = connection, message, failures

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc):
        return self._connection.__exit__(*exc)

    def executemany(self, sql, rows):
        if self._failures:
            self._failures -= 1
            raise sqlite3.OperationalError(self._message)
        return self._connection.executemany(sql, rows)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="siren-store-machine-")
        self.path = os.path.join(self.directory, "siren.db")
        #: process key -> the record ``processes`` must hold
        self.model: dict[tuple, ProcessRecord] = {}
        self._open()

    def _open(self) -> None:
        self.store = MessageStore(self.path)
        self.store._sleep = lambda _seconds: None
        self.store.attach_tiered(build_tiered_store("memory", user_names=_USERS))

    @rule(batch=_batches, fault=_faults)
    def insert_processes_if_absent(self, batch, fault):
        store = self.store
        connection = store.connection
        if fault is not None:
            store.connection = _RaisingConnection(connection, *fault)
        try:
            store.insert_processes_if_absent(batch)
        except sqlite3.OperationalError as error:
            message, failures = fault
            assert str(error) == message
            assert message == _DISK_FULL or failures > RETRY_ATTEMPTS
            return
        finally:
            store.connection = connection
        assert fault is None or (fault[0] == _LOCKED
                                 and fault[1] <= RETRY_ATTEMPTS)
        for record in batch:
            self.model.setdefault(record.key, record)

    @rule(fresh=st.booleans())
    def attach_tiered(self, fresh):
        tiered = (build_tiered_store("memory", user_names=_USERS) if fresh
                  else self.store.tiered)
        self.store.attach_tiered(tiered)

    @rule()
    def close_and_reopen(self):
        self.store.close()
        self._open()

    @invariant()
    def gold_is_the_recompute_over_processes(self):
        records = sorted(self.store.load_processes(), key=attrgetter("key"))
        assert {record.key: record for record in records} == self.model
        tiered = self.store.tiered
        assert tiered.statistics()["silver_rows"] == len(records)
        assert tiered.user_activity() == tables.user_activity_table(records, _USERS)
        assert tiered.system_executables() == \
            tables.system_executable_table(records, _USERS)
        assert tiered.shared_object_variants("bash") == \
            tables.shared_object_variant_table(records, "bash")
        assert tiered.python_interpreters() == \
            tables.python_interpreter_table(records, _USERS)

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


StoreMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=20,
                                          deadline=None)
TestStoreMachine = StoreMachine.TestCase
