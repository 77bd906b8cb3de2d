"""Tests for message consolidation and Python package extraction.

Records are built by ``build_process_record``; the post-pass oracle in
``tests/oracles/consolidate.py`` groups raw messages for it, so these cases
pin the record builder through the oracle.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.db.store import MessageStore
from repro.hpcsim.memmap import build_memory_map, render_memory_map
from repro.ingest.records import (
    GROUP_KEYS,
    MessageGroup,
    expected_keys_for,
    expected_types_for,
    extract_python_packages,
    package_from_mapped_path,
)
from repro.transport.chunking import reassemble_chunks
from repro.transport.messages import UDPMessage
from repro.util.errors import TransportError

from oracles.consolidate import Consolidator, consolidate_store


def _msg(info_type: InfoType, content: str, *, layer: Layer = Layer.SELF, pid: int = 10,
         path_hash: str = "a" * 32, chunk_index: int = 0, chunk_total: int = 1,
         time: int = 100) -> UDPMessage:
    return UDPMessage(jobid="7", stepid="0", pid=pid, path_hash=path_hash, host="n1",
                      time=time, layer=layer, info_type=info_type, content=content,
                      chunk_index=chunk_index, chunk_total=chunk_total)


def _procinfo(exe: str, category: str, pid: int = 10, path_hash: str = "a" * 32) -> UDPMessage:
    return _msg(InfoType.PROCINFO,
                format_keyvalues({"pid": pid, "ppid": 1, "uid": 1000, "gid": 1000,
                                  "exe": exe, "category": category}),
                pid=pid, path_hash=path_hash)


class TestGroupConstants:
    def test_group_keys_are_the_wire_values_of_every_member_pair(self):
        assert GROUP_KEYS == {(layer, info_type): (layer.value, info_type.value)
                              for layer in Layer for info_type in InfoType}

    @pytest.mark.parametrize("category", ["system", "user", "python", "", "no-such"])
    def test_expected_keys_are_the_expected_types_on_the_self_layer(self, category):
        assert expected_keys_for(category) == tuple(
            (Layer.SELF.value, info_type.value)
            for info_type in expected_types_for(category))


class TestReassembleShortcut:
    """An unchunked group answers without ``reassemble_chunks``; whatever it
    holds, the answer is ``reassemble_chunks``'s."""

    @given(st.dictionaries(st.integers(min_value=-3, max_value=6),
                           st.text(max_size=5), max_size=6),
           st.integers(min_value=-1, max_value=6))
    @example({}, 1)                      # nothing arrived
    @example({1: "b"}, 1)                # index 0 missing
    @example({0: "a", 1: "b"}, 1)        # an index >= total, two chunks present
    @example({-1: "z", 0: "a"}, 1)       # a negative index
    @example({0: ""}, 1)                 # the empty string
    @example({0: "a"}, 2)                # a chunk lost
    @example({0: "a"}, 0)                # an impossible total
    @settings(max_examples=300, deadline=None)
    def test_equals_reassemble_chunks(self, chunks, chunk_total):
        group = MessageGroup(chunks=dict(chunks), chunk_total=chunk_total)
        try:
            reference = reassemble_chunks(chunks, chunk_total)
        except TransportError:
            with pytest.raises(TransportError):
                group.reassemble()
            return
        assert group.reassemble() == (reference.content, reference.complete)
        assert group.chunks == chunks


class TestPackageFromMappedPath:
    def test_stdlib_module(self):
        path = "/usr/lib64/python3.10/lib-dynload/_heapq.cpython-310-x86_64-linux-gnu.so"
        assert package_from_mapped_path(path) == "heapq"

    def test_site_package(self):
        path = "/usr/lib64/python3.10/site-packages/numpy/core/_multiarray_umath.cpython-310.so"
        assert package_from_mapped_path(path) == "numpy"

    def test_site_package_flat_extension(self):
        path = "/usr/lib64/python3.11/site-packages/_yaml.cpython-311.so"
        assert package_from_mapped_path(path) == "yaml"

    def test_unrelated_path(self):
        assert package_from_mapped_path("/lib64/libc.so.6") is None
        assert package_from_mapped_path("/usr/bin/python3.10") is None

    def test_extract_from_maps_text(self):
        regions = build_memory_map(
            "/usr/bin/python3.10", 4096, 1,
            [("/lib64/libc.so.6", 100, 2)],
            [("/usr/lib64/python3.10/lib-dynload/_heapq.cpython-310.so", 10, 3),
             ("/usr/lib64/python3.10/site-packages/numpy/core/_multiarray_umath.cpython-310.so",
              10, 4)],
        )
        packages = extract_python_packages(render_memory_map(regions))
        assert packages == ["heapq", "numpy"]


class TestConsolidation:
    def test_basic_record_fields(self):
        store = MessageStore()
        store.insert_many([
            _procinfo("/project/p/u/lmp", "user"),
            _msg(InfoType.FILEMETA, format_keyvalues({"inode": 5, "size": 100})),
            _msg(InfoType.OBJECTS, "/lib64/libc.so.6\n/lib64/libm.so.6"),
            _msg(InfoType.OBJECTS_H, "3:abc:de"),
            _msg(InfoType.FILE_H, "96:xyz:uv"),
        ])
        records = consolidate_store(store)
        assert len(records) == 1
        record = records[0]
        assert record.executable == "/project/p/u/lmp"
        assert record.category == "user"
        assert record.uid == 1000
        assert record.object_list == ["/lib64/libc.so.6", "/lib64/libm.so.6"]
        assert record.file_h == "96:xyz:uv"
        assert store.process_count() == 1

    def test_chunked_content_reassembled(self):
        store = MessageStore()
        store.insert_many([
            _procinfo("/usr/bin/bash", "system"),
            _msg(InfoType.FILEMETA, "inode=1"),
            _msg(InfoType.OBJECTS, "part-one|", chunk_index=0, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-two|", chunk_index=1, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-three", chunk_index=2, chunk_total=3),
        ])
        record = consolidate_store(store)[0]
        assert record.objects == "part-one|part-two|part-three"
        assert record.incomplete == 0

    def test_missing_chunk_marks_incomplete(self):
        store = MessageStore()
        store.insert_many([
            _procinfo("/usr/bin/bash", "system"),
            _msg(InfoType.FILEMETA, "inode=1"),
            _msg(InfoType.OBJECTS, "part-one|", chunk_index=0, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-three", chunk_index=2, chunk_total=3),
        ])
        consolidator = Consolidator(store)
        record = consolidator.run()[0]
        assert record.incomplete == 1
        assert consolidator.incomplete_records == 1

    def test_missing_expected_type_marks_incomplete(self):
        store = MessageStore()
        store.insert_many([
            _procinfo("/usr/bin/bash", "system"),
            _msg(InfoType.FILEMETA, "inode=1"),
            # OBJECTS expected for system executables but entirely lost.
        ])
        assert consolidate_store(store)[0].incomplete == 1

    def test_exec_chain_distinguished_by_path_hash(self):
        """Same PID + timestamp but different executables stay separate records."""
        store = MessageStore()
        store.insert_many([
            _procinfo("/usr/bin/bash", "system", pid=42, path_hash="b" * 32),
            _msg(InfoType.FILEMETA, "inode=1", pid=42, path_hash="b" * 32),
            _msg(InfoType.OBJECTS, "libc", pid=42, path_hash="b" * 32),
            _procinfo("/project/p/u/lmp", "user", pid=42, path_hash="c" * 32),
            _msg(InfoType.FILEMETA, "inode=2", pid=42, path_hash="c" * 32),
        ])
        records = consolidate_store(store)
        assert len(records) == 2
        assert {record.executable for record in records} == {"/usr/bin/bash", "/project/p/u/lmp"}

    def test_script_layer_merged_into_interpreter_row(self):
        store = MessageStore()
        maps_text = render_memory_map(build_memory_map(
            "/usr/bin/python3.10", 4096, 1, [],
            [("/usr/lib64/python3.10/lib-dynload/_heapq.cpython-310.so", 10, 3)]))
        store.insert_many([
            _procinfo("/usr/bin/python3.10", "python"),
            _msg(InfoType.FILEMETA, "inode=1"),
            _msg(InfoType.OBJECTS, "/lib64/libc.so.6"),
            _msg(InfoType.MAPS, maps_text),
            _msg(InfoType.PROCINFO, format_keyvalues({"script": "/users/a/run.py"}),
                 layer=Layer.SCRIPT),
            _msg(InfoType.FILEMETA, "inode=9|size=40", layer=Layer.SCRIPT),
            _msg(InfoType.FILE_H, "3:script:hash", layer=Layer.SCRIPT),
        ])
        records = consolidate_store(store)
        assert len(records) == 1
        record = records[0]
        assert record.script_path == "/users/a/run.py"
        assert record.script_h == "3:script:hash"
        assert record.python_packages == "heapq"

    def test_clear_messages_after_consolidation(self):
        store = MessageStore()
        store.insert_many([_procinfo("/usr/bin/ls", "system"),
                           _msg(InfoType.FILEMETA, "inode=1"),
                           _msg(InfoType.OBJECTS, "libc")])
        consolidate_store(store, clear_messages=True)
        assert store.message_count() == 0
        assert store.process_count() == 1

    def test_multiple_processes_sorted(self):
        store = MessageStore()
        for pid in (30, 20):
            store.insert_many([
                _procinfo("/usr/bin/ls", "system", pid=pid),
                _msg(InfoType.FILEMETA, "inode=1", pid=pid),
                _msg(InfoType.OBJECTS, "libc", pid=pid),
            ])
        records = consolidate_store(store)
        assert [record.pid for record in records] == [20, 30]
