"""Tests for the SQLite message store and process records."""

from repro.collector.records import InfoType, Layer
from repro.db.store import PROCESS_FIELDS, MessageStore, ProcessRecord
from repro.transport.messages import UDPMessage

from oracles.consolidate import raw_messages
from oracles.wire import rows


def _message(info_type: InfoType = InfoType.PROCINFO, pid: int = 1,
             content: str = "x") -> UDPMessage:
    return UDPMessage(jobid="10", stepid="0", pid=pid, path_hash="f" * 32, host="n1",
                      time=500, layer=Layer.SELF, info_type=info_type, content=content)


class TestMessageStorage:
    def test_insert_and_count(self):
        store = MessageStore()
        store.insert_rows(rows([_message()]))
        assert len(raw_messages(store)) == 1

    def test_insert_rows_returns_the_count(self):
        store = MessageStore()
        assert store.insert_rows(rows([_message(pid=i) for i in range(10)])) == 10
        assert len(raw_messages(store)) == 10

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "siren.db")
        store = MessageStore(path)
        store.insert_rows(rows([_message()]))
        store.close()
        reopened = MessageStore(path)
        assert len(raw_messages(reopened)) == 1
        reopened.close()

    def test_context_manager(self):
        with MessageStore() as store:
            store.insert_rows(rows([_message()]))
            assert len(raw_messages(store)) == 1

    def test_in_memory_store_trades_durability_for_speed(self):
        store = MessageStore()
        (journal_mode,) = store.connection.execute("PRAGMA journal_mode").fetchone()
        (synchronous,) = store.connection.execute("PRAGMA synchronous").fetchone()
        assert journal_mode == "memory"
        assert synchronous == 0  # OFF

    def test_on_disk_store_is_crash_safe(self, tmp_path):
        store = MessageStore(str(tmp_path / "siren.db"))
        (journal_mode,) = store.connection.execute("PRAGMA journal_mode").fetchone()
        (synchronous,) = store.connection.execute("PRAGMA synchronous").fetchone()
        assert journal_mode == "wal"
        assert synchronous == 1  # NORMAL
        store.close()


class TestProcessRecords:
    def _record(self) -> ProcessRecord:
        return ProcessRecord(
            jobid="10", stepid="0", pid=5, hash="f" * 32, host="n1", time=100,
            uid=1000, executable="/project/p/u/icon-model/bin-x/icon", category="user",
            objects="/lib64/libc.so.6\n/lib64/libm.so.6",
            compilers="GCC: (SUSE Linux) 12.3.0;clang version 17.0.1 (Cray PE 24.03)",
            modules="siren/0.1:cce/17.0.1",
            python_packages="numpy,heapq",
        )

    def test_insert_and_load(self):
        store = MessageStore()
        store.insert_processes_if_absent([self._record()])
        assert store.process_count() == 1
        loaded = store.load_processes()[0]
        assert loaded.executable_name == "icon"
        assert loaded.category == "user"

    def test_load_processes_since_is_a_monotonic_cursor(self):
        store = MessageStore()

        def record(pid: int) -> ProcessRecord:
            return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="a" * 32,
                                 host="n1", time=100, executable=f"/bin/x{pid}")

        store.insert_processes_if_absent([record(1), record(2)])
        first, cursor = store.load_processes_since(0)
        assert [r.pid for r in first] == [1, 2]
        # nothing new: same cursor back, no records
        again, same_cursor = store.load_processes_since(cursor)
        assert again == [] and same_cursor == cursor
        store.insert_processes_if_absent([record(3)])
        # a re-offered key is ignored by the first-close-wins insert, so it
        # never reappears in the delta stream
        store.insert_processes_if_absent([record(2)])
        delta, new_cursor = store.load_processes_since(cursor)
        assert [r.pid for r in delta] == [3]
        assert new_cursor > cursor
        # the cursor stream partitions exactly the full record set
        assert {r.pid for r in first + delta} == {r.pid for r in store.load_processes()}

    def test_records_read_back_share_equal_values(self, tmp_path):
        """A store reopened on disk reads its records from SQL: each distinct
        string value is one object, however many records hold it."""
        path = str(tmp_path / "siren.db")
        with MessageStore(path) as store:
            store.insert_processes_if_absent([
                ProcessRecord(jobid=f"j{pid % 3}", stepid="0", pid=pid, hash="f" * 32,
                              host=f"nid{pid % 2:06d}", time=100 + pid, uid=1000,
                              executable=("/usr/bin/bash", "/project/p/u/icon")[pid % 2],
                              category=("system", "user")[pid % 2],
                              objects="/lib64/libc.so.6\n/lib64/libm.so.6",
                              modules="siren/0.1:cce/17.0.1")
                for pid in range(40)])
        with MessageStore(path) as reopened:
            records = reopened.load_processes()
        assert len(records) == 40
        for name in PROCESS_FIELDS:
            values = [getattr(record, name) for record in records]
            if isinstance(values[0], str):
                assert len({id(value) for value in values}) == len(set(values)), name

    def test_list_properties(self):
        record = self._record()
        assert record.object_list == ["/lib64/libc.so.6", "/lib64/libm.so.6"]
        assert len(record.compiler_list) == 2
        assert record.python_package_list == ["numpy", "heapq"]

    def test_empty_lists(self):
        record = ProcessRecord(jobid="1", stepid="0", pid=1, hash="", host="", time=0)
        assert record.object_list == []
        assert record.compiler_list == []
        assert record.python_package_list == []

    def test_roundtrip_preserves_all_fields(self):
        store = MessageStore()
        record = self._record()
        store.insert_processes_if_absent([record])
        loaded = store.load_processes()[0]
        assert loaded.objects == record.objects
        assert loaded.compilers == record.compilers
        assert loaded.uid == 1000
        assert loaded.incomplete == 0

    def test_insert_if_absent_keeps_existing_row(self):
        store = MessageStore()
        first = self._record()
        assert store.insert_processes_if_absent([first]) == 1
        resurrected = self._record()
        resurrected.modules = ""
        resurrected.incomplete = 1
        assert store.insert_processes_if_absent([resurrected]) == 0
        loaded = store.load_processes()[0]
        assert loaded.modules == first.modules
        assert loaded.incomplete == 0

    def test_reconsolidation_is_idempotent(self):
        store = MessageStore()
        record = self._record()
        store.insert_processes_if_absent([record])
        store.insert_processes_if_absent([record])
        assert store.process_count() == 1

    def test_distinct_keys_stay_separate(self):
        store = MessageStore()
        first = self._record()
        other = self._record()
        other.hash = "e" * 32  # exec-chain sibling: same pid/time, new image
        store.insert_processes_if_absent([first, other])
        assert store.process_count() == 2
