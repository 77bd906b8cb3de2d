"""Tests for the SQLite message store and process records."""

import pytest

from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore, ProcessRecord
from repro.transport.messages import UDPMessage


def _message(info_type: InfoType = InfoType.PROCINFO, pid: int = 1,
             content: str = "x") -> UDPMessage:
    return UDPMessage(jobid="10", stepid="0", pid=pid, path_hash="f" * 32, host="n1",
                      time=500, layer=Layer.SELF, info_type=info_type, content=content)


class TestMessageStorage:
    def test_insert_and_count(self):
        store = MessageStore()
        store.insert(_message())
        assert store.message_count() == 1

    def test_insert_many(self):
        store = MessageStore()
        assert store.insert_many([_message(pid=i) for i in range(10)]) == 10
        assert store.message_count() == 10

    def test_iter_messages_ordering(self):
        store = MessageStore()
        store.insert_many([_message(InfoType.OBJECTS, pid=2), _message(InfoType.FILEMETA, pid=1)])
        rows = list(store.iter_messages())
        assert rows[0][2] == 1 and rows[1][2] == 2

    def test_clear_messages(self):
        store = MessageStore()
        store.insert(_message())
        store.clear_messages()
        assert store.message_count() == 0

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "siren.db")
        store = MessageStore(path)
        store.insert(_message())
        store.close()
        reopened = MessageStore(path)
        assert reopened.message_count() == 1
        reopened.close()

    def test_context_manager(self):
        with MessageStore() as store:
            store.insert(_message())
            assert store.message_count() == 1

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

    def test_iter_messages_order_is_index_backed(self):
        store = MessageStore()
        store.insert_many([_message(pid=pid) for pid in range(5)])
        plan = " ".join(row[3] for row in store.connection.execute(
            "EXPLAIN QUERY PLAN SELECT jobid, stepid, pid, hash, host, time, layer,"
            " type, chunk_index, chunk_total, content FROM messages"
            " ORDER BY jobid, stepid, pid, hash, time, type, chunk_index"))
        assert "idx_messages_consolidation_order" in plan
        assert "USE TEMP B-TREE" not in plan


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
        store.insert_processes([self._record()])
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

    def test_list_properties(self):
        record = self._record()
        assert record.object_list == ["/lib64/libc.so.6", "/lib64/libm.so.6"]
        assert len(record.compiler_list) == 2
        assert record.module_list == ["siren/0.1", "cce/17.0.1"]
        assert record.python_package_list == ["numpy", "heapq"]

    def test_empty_lists(self):
        record = ProcessRecord(jobid="1", stepid="0", pid=1, hash="", host="", time=0)
        assert record.object_list == []
        assert record.compiler_list == []
        assert record.module_list == []
        assert record.python_package_list == []

    def test_roundtrip_preserves_all_fields(self):
        store = MessageStore()
        record = self._record()
        store.insert_processes([record])
        loaded = store.load_processes()[0]
        assert loaded.objects == record.objects
        assert loaded.compilers == record.compilers
        assert loaded.uid == 1000
        assert loaded.incomplete == 0

    def test_upsert_replaces_by_process_key(self):
        store = MessageStore()
        first = self._record()
        store.insert_or_replace_processes([first])
        updated = self._record()
        updated.modules = "siren/0.1"
        updated.incomplete = 1
        store.insert_or_replace_processes([updated])
        assert store.process_count() == 1
        loaded = store.load_processes()[0]
        assert loaded.modules == "siren/0.1"
        assert loaded.incomplete == 1

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

    def test_upsert_keeps_distinct_keys_separate(self):
        store = MessageStore()
        first = self._record()
        other = self._record()
        other.hash = "e" * 32  # exec-chain sibling: same pid/time, new image
        store.insert_or_replace_processes([first, other])
        assert store.process_count() == 2

    def test_reconsolidation_is_idempotent(self):
        store = MessageStore()
        record = self._record()
        store.insert_processes([record])
        store.insert_processes([record])
        assert store.process_count() == 1

    def test_legacy_store_with_duplicate_rows_migrates(self, tmp_path):
        """Pre-upsert stores could hold duplicate process rows; opening one
        must dedup (keeping the newest row) instead of failing to build the
        unique index."""
        path = str(tmp_path / "legacy.db")
        store = MessageStore(path)
        store.connection.execute("DROP INDEX ux_processes_key")
        store.insert_processes([self._record()])
        columns = ", ".join(name for name in self._record().__dataclass_fields__)
        with store.connection:
            store.connection.execute(
                f"INSERT INTO processes ({columns}) SELECT {columns} FROM processes")
        assert store.process_count() == 2
        store.close()
        reopened = MessageStore(path)  # must not raise IntegrityError
        assert reopened.process_count() == 1
        reopened.close()

    def test_store_with_the_old_indexes_sheds_them(self, tmp_path):
        """A store created when ``processes`` carried job, executable and
        category indexes loses them on reopen; its records and its delta
        stream are what they were."""
        path = str(tmp_path / "old.db")
        store = MessageStore(path)
        with store.connection:
            for name, column in (("idx_processes_job", "jobid"),
                                 ("idx_processes_exe", "executable"),
                                 ("idx_processes_category", "category")):
                store.connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {name} ON processes ({column})")
        store.insert_processes_if_absent([
            ProcessRecord(jobid=str(pid % 3), stepid="0", pid=pid, hash="a" * 32,
                          host="n1", time=100, executable=f"/bin/x{pid % 4}",
                          category=("user", "system")[pid % 2])
            for pid in range(12)])
        records = store.load_processes()
        first, mark = store.load_processes_since(0)
        rest = store.load_processes_since(5)
        store.close()

        def indexes(store: MessageStore) -> set[str]:
            return {name for (name,) in store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type='index'"
                " AND tbl_name='processes' AND sql IS NOT NULL")}

        with MessageStore(path) as reopened:
            assert indexes(reopened) == {"ux_processes_key"}
            assert reopened.load_processes() == records
            assert reopened.load_processes_since(0) == (first, mark) and mark == 12
            assert reopened.load_processes_since(5) == rest
