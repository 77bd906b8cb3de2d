"""Tests for message consolidation and Python package extraction.

The post-pass oracle in ``tests/oracles/consolidate.py`` groups raw
messages for the record builder as first written
(``tests/oracles/records.py``), so the ``TestConsolidation`` cases pin that
builder; ``TestFastBuilder`` pins ``build_process_record`` to it over random
row lists, regrouped for the oracle.
"""

from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector.classify import ExecutableCategory
from repro.collector.policy import TABLE_1
from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.db.store import MessageStore
from repro.hpcsim.memmap import build_memory_map, render_memory_map
from repro.ingest.records import (
    GROUP_KEYS,
    build_process_record,
    expected_keys_for,
    expected_types_for,
    extract_python_packages,
    package_from_mapped_path,
    parse_mapped_paths,
)
from repro.transport.chunking import reassemble_chunks
from repro.transport.messages import UDPMessage

from oracles import records as oracle
from oracles.consolidate import records_from_messages
from oracles.wire import rows


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


_EXECUTABLES = {ExecutableCategory.SYSTEM: "/usr/bin/bash",
                ExecutableCategory.USER: "/project/p/u/lmp",
                ExecutableCategory.PYTHON: "/usr/bin/python3.10"}


def _complete(category: ExecutableCategory, *, but: InfoType | None = None) -> list[UDPMessage]:
    """A process as the collector sends it: its PROCINFO, then one message
    per section Table 1 lists for its category -- ``but`` that one."""
    return [_procinfo(_EXECUTABLES[category], category.value),
            *(_msg(info_type, f"{info_type.value.lower()}-content")
              for info_type in TABLE_1[category] if info_type is not but)]


class TestGroupConstants:
    def test_group_keys_are_the_wire_values_of_every_member_pair(self):
        assert GROUP_KEYS == {(layer, info_type): (layer.value, info_type.value)
                              for layer in Layer for info_type in InfoType}

    @pytest.mark.parametrize("category", ["system", "user", "python", "", "no-such"])
    def test_expected_keys_are_the_expected_types_on_the_self_layer(self, category):
        assert expected_keys_for(category) == tuple(
            (Layer.SELF.value, info_type.value)
            for info_type in expected_types_for(category))

    @pytest.mark.parametrize("category", ["", "no-such"])
    def test_an_unlisted_category_is_owed_what_every_scope_sends(self, category):
        assert expected_types_for(category) == (InfoType.PROCINFO, InfoType.FILEMETA)


class TestReassembleShortcut:
    """An unchunked pair goes straight into its slot without
    ``reassemble_chunks``; whatever rows a pair has, its content and
    wholeness are ``reassemble_chunks``'s over the chunks that arrived and
    the largest total announced (never below 1)."""

    @given(st.dictionaries(st.integers(min_value=-3, max_value=6),
                           st.text(max_size=5), min_size=1, max_size=6),
           st.integers(min_value=-1, max_value=6))
    @example({1: "b"}, 1)                # index 0 missing
    @example({0: "a", 1: "b"}, 1)        # an index >= total, two chunks present
    @example({-1: "z", 0: "a"}, 1)       # a negative index
    @example({0: ""}, 1)                 # the empty string
    @example({0: "a"}, 2)                # a chunk lost
    @example({0: "a"}, 0)                # an impossible total
    @settings(max_examples=300, deadline=None)
    def test_equals_reassemble_chunks(self, chunks, chunk_total):
        pair = GROUP_KEYS[Layer.SELF, InfoType.MODULES]
        record, whole = build_process_record(_KEY, [
            (*_KEY, *pair, index, chunk_total, content) for index, content in chunks.items()])
        reference = reassemble_chunks(chunks, max(chunk_total, 1))
        assert (record.modules, whole) == (reference.content, reference.complete)


class TestParseMappedPaths:
    def test_extracts_unique_file_paths(self):
        regions = build_memory_map("/usr/bin/x", 4096, 1,
                                   [("/lib64/libc.so.6", 100, 2), ("/lib64/libm.so.6", 100, 3)])
        paths = parse_mapped_paths(render_memory_map(regions))
        assert paths == ["/usr/bin/x", "/lib64/libc.so.6", "/lib64/libm.so.6"]

    def test_skips_pseudo_paths(self):
        regions = build_memory_map("/usr/bin/x", 4096, 1, [])
        paths = parse_mapped_paths(render_memory_map(regions))
        assert all(not path.startswith("[") for path in paths)

    def test_handles_garbage_lines(self):
        assert parse_mapped_paths("not a maps line\n\n") == []


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
        store.insert_rows(rows([
            _procinfo("/project/p/u/lmp", "user"),
            _msg(InfoType.FILEMETA, format_keyvalues({"inode": 5, "size": 100})),
            _msg(InfoType.OBJECTS, "/lib64/libc.so.6\n/lib64/libm.so.6"),
            _msg(InfoType.OBJECTS_H, "3:abc:de"),
            _msg(InfoType.FILE_H, "96:xyz:uv"),
        ]))
        records = records_from_messages(store)
        assert len(records) == 1
        record = records[0]
        assert record.executable == "/project/p/u/lmp"
        assert record.category == "user"
        assert record.uid == 1000
        assert record.object_list == ["/lib64/libc.so.6", "/lib64/libm.so.6"]
        assert record.file_h == "96:xyz:uv"

    def test_chunked_content_reassembled(self):
        store = MessageStore()
        store.insert_rows(rows([
            *_complete(ExecutableCategory.SYSTEM, but=InfoType.OBJECTS),
            _msg(InfoType.OBJECTS, "part-one|", chunk_index=0, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-two|", chunk_index=1, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-three", chunk_index=2, chunk_total=3),
        ]))
        record = records_from_messages(store)[0]
        assert record.objects == "part-one|part-two|part-three"
        assert record.incomplete == 0

    def test_missing_chunk_marks_incomplete(self):
        store = MessageStore()
        store.insert_rows(rows([
            *_complete(ExecutableCategory.SYSTEM, but=InfoType.OBJECTS),
            _msg(InfoType.OBJECTS, "part-one|", chunk_index=0, chunk_total=3),
            _msg(InfoType.OBJECTS, "part-three", chunk_index=2, chunk_total=3),
        ]))
        assert records_from_messages(store)[0].incomplete == 1

    @pytest.mark.parametrize("category", _EXECUTABLES, ids=str)
    def test_a_complete_burst_is_not_flagged(self, category):
        record, whole = build_process_record(_KEY, rows(_complete(category)))
        assert (record.category, record.incomplete, whole) == (category.value, 0, True)

    @pytest.mark.parametrize("category, lost", [
        (category, info_type) for category in _EXECUTABLES for info_type in TABLE_1[category]],
        ids=str)
    def test_missing_expected_type_marks_incomplete(self, category, lost):
        """Every section Table 1 lists for a category, lost alone, flags the record."""
        record, _ = build_process_record(_KEY, rows(_complete(category, but=lost)))
        assert record.incomplete == 1

    def test_exec_chain_distinguished_by_path_hash(self):
        """Same PID + timestamp but different executables stay separate records."""
        store = MessageStore()
        store.insert_rows(rows([
            _procinfo("/usr/bin/bash", "system", pid=42, path_hash="b" * 32),
            _msg(InfoType.FILEMETA, "inode=1", pid=42, path_hash="b" * 32),
            _msg(InfoType.OBJECTS, "libc", pid=42, path_hash="b" * 32),
            _procinfo("/project/p/u/lmp", "user", pid=42, path_hash="c" * 32),
            _msg(InfoType.FILEMETA, "inode=2", pid=42, path_hash="c" * 32),
        ]))
        records = records_from_messages(store)
        assert len(records) == 2
        assert {record.executable for record in records} == {"/usr/bin/bash", "/project/p/u/lmp"}

    def test_script_layer_merged_into_interpreter_row(self):
        store = MessageStore()
        maps_text = render_memory_map(build_memory_map(
            "/usr/bin/python3.10", 4096, 1, [],
            [("/usr/lib64/python3.10/lib-dynload/_heapq.cpython-310.so", 10, 3)]))
        store.insert_rows(rows([
            _procinfo("/usr/bin/python3.10", "python"),
            _msg(InfoType.FILEMETA, "inode=1"),
            _msg(InfoType.OBJECTS, "/lib64/libc.so.6"),
            _msg(InfoType.MAPS, maps_text),
            _msg(InfoType.PROCINFO, format_keyvalues({"script": "/users/a/run.py"}),
                 layer=Layer.SCRIPT),
            _msg(InfoType.FILEMETA, "inode=9|size=40", layer=Layer.SCRIPT),
            _msg(InfoType.FILE_H, "3:script:hash", layer=Layer.SCRIPT),
        ]))
        records = records_from_messages(store)
        assert len(records) == 1
        record = records[0]
        assert record.script_path == "/users/a/run.py"
        assert record.script_h == "3:script:hash"
        assert record.python_packages == "heapq"

    def test_multiple_processes_sorted(self):
        store = MessageStore()
        for pid in (30, 20):
            store.insert_rows(rows([
                _procinfo("/usr/bin/ls", "system", pid=pid),
                _msg(InfoType.FILEMETA, "inode=1", pid=pid),
                _msg(InfoType.OBJECTS, "libc", pid=pid),
            ]))
        records = records_from_messages(store)
        assert [record.pid for record in records] == [20, 30]


# --------------------------------------------------------------------------- #
# the fast builder against the oracle
# --------------------------------------------------------------------------- #
_PYTHON_MAPS = render_memory_map(build_memory_map(
    "/usr/bin/python3.10", 4096, 1, [("/lib64/libc.so.6", 100, 2)],
    [("/usr/lib64/python3.10/lib-dynload/_heapq.cpython-310.so", 10, 3),
     ("/usr/lib64/python3.10/site-packages/numpy/core/_umath.cpython-310.so", 10, 4)]))
_procinfo_fields = st.fixed_dictionaries({}, optional={
    "pid": st.sampled_from(["10", "x"]),
    "ppid": st.sampled_from(["1", "", "-3"]),
    "uid": st.sampled_from(["1000", "1e3", " 7"]),
    "gid": st.sampled_from(["1000", "g"]),
    "exe": st.sampled_from(["/usr/bin/python3", "/project/p/u/lmp", ""]),
})
_CATEGORIES = ["user", "system", "python", "", "other"]
#: Every wire key, plus two no layer/type pair is filed under.
_ALL_KEYS = (*GROUP_KEYS.values(), ("SELF", "NOPE"), ("OTHER", "PROCINFO"))
_SELF_PROCINFO = GROUP_KEYS[Layer.SELF, InfoType.PROCINFO]
_SCRIPT_PROCINFO = GROUP_KEYS[Layer.SCRIPT, InfoType.PROCINFO]


def _contents(group_key, category: str):
    if group_key == _SELF_PROCINFO:
        return _procinfo_fields.map(
            lambda fields: format_keyvalues({**fields, "category": category}))
    if group_key == _SCRIPT_PROCINFO:
        return st.sampled_from(["script=/users/a/run.py", "", "other=1", "script="])
    if group_key[1] == InfoType.MAPS.value:
        return st.sampled_from([_PYTHON_MAPS, "", "not a map"])
    return st.text(max_size=6)


def _rows(key, pair, content: str):
    """Rows carrying ``content`` under ``pair``: cut into chunks, all of them
    sent once -- or some lost, some sent twice (the copy maybe announcing
    another total), one announced but never sent, one stray index outside
    ``[0, total)``, and an unchunked message's total maybe below 1."""

    @st.composite
    def rows(draw):
        cuts = sorted(draw(st.lists(st.integers(0, len(content)), max_size=2)))
        bounds = [0, *cuts, len(content)]
        pieces = [content[low:high] for low, high in zip(bounds, bounds[1:])]
        total = len(pieces)
        if total == 1:
            total = draw(st.sampled_from([1, 1, 0, -1]))
        if draw(st.booleans()):
            return [(*key, *pair, index, total, piece) for index, piece in enumerate(pieces)]
        total = max(total, 1) + draw(st.integers(0, 1))
        lost = draw(st.sets(st.integers(0, len(pieces) - 1), max_size=len(pieces)))
        sent = [(*key, *pair, index, total, piece)
                for index, piece in enumerate(pieces) if index not in lost]
        for index in draw(st.lists(st.integers(0, len(pieces) - 1), max_size=2)):
            copy_total = draw(st.sampled_from([total, 1, total + 1]))
            sent.append((*key, *pair, index, copy_total,
                         draw(st.sampled_from([pieces[index], "copy"]))))
        stray = draw(st.sampled_from([None, -1, total, total + 2]))
        if stray is not None:
            sent.append((*key, *pair, stray, total, "stray"))
        return sent

    return rows()


@st.composite
def _process_rows(draw, key) -> list:
    """One process's rows in any order: a category's expected pairs
    (usually) plus any others, PROCEND, SCRIPT-layer and unmapped pairs among
    them."""
    category = draw(st.sampled_from(_CATEGORIES))
    pairs = list(expected_keys_for(category)) if draw(st.booleans()) else []
    pairs += draw(st.lists(st.sampled_from(_ALL_KEYS), max_size=8))
    rows = [row for pair in dict.fromkeys(pairs)
            for row in draw(_rows(key, pair, draw(_contents(pair, category))))]
    return draw(st.permutations(rows))


_keys = st.tuples(st.sampled_from(["7", "8"]), st.just("0"), st.integers(0, 99),
                  st.just("a" * 32), st.just("n1"), st.integers(0, 2))
_KEY = ("7", "0", 1, "h", "n1", 0)


def _unchunked(pair, content: str) -> tuple:
    return (*_KEY, *pair, 0, 1, content)


class TestFastBuilder:
    """``build_process_record`` over a process's rows equals the builder as
    first written over the same rows regrouped, and its flag says whether
    every pair filed has all of its announced in-range chunks."""

    @given(_keys.flatmap(lambda key: st.tuples(st.just(key), _process_rows(key))))
    @example((_KEY, []))
    @example((_KEY, [                           # a script under a non-Python exe
        _unchunked(_SELF_PROCINFO, "exe=/project/p/u/lmp|category=user"),
        _unchunked(GROUP_KEYS[Layer.SELF, InfoType.MAPS], _PYTHON_MAPS),
        _unchunked(_SCRIPT_PROCINFO, "script=/users/a/run.py")]))
    @example((_KEY, [                           # chunks {0, 5} of 2: one arrived
        _unchunked(_SELF_PROCINFO, "exe=/usr/bin/bash|category=system"),
        _unchunked(GROUP_KEYS[Layer.SELF, InfoType.FILEMETA], "inode=1"),
        (*_KEY, *GROUP_KEYS[Layer.SELF, InfoType.OBJECTS], 0, 2, "libc|"),
        (*_KEY, *GROUP_KEYS[Layer.SELF, InfoType.OBJECTS], 5, 2, "stray"),
        _unchunked(GROUP_KEYS[Layer.SELF, InfoType.PROCEND], "end_time=1")]))
    @example((_KEY, [                           # an unmapped pair missing a chunk
        _unchunked(_SELF_PROCINFO, "exe=/usr/bin/bash|category=system"),
        _unchunked(GROUP_KEYS[Layer.SELF, InfoType.FILEMETA], "inode=1"),
        _unchunked(GROUP_KEYS[Layer.SELF, InfoType.OBJECTS], "libc"),
        (*_KEY, *GROUP_KEYS[Layer.SELF, InfoType.PROCEND], 1, 2, "exit_code=0")]))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_oracle(self, drawn):
        key, rows = drawn
        before = list(rows)
        record, whole = build_process_record(key, rows)
        groups = oracle.regroup(rows)
        expected = oracle.build_process_record(key, groups)
        assert astuple(record) == astuple(expected)
        assert list(map(type, astuple(record))) == list(map(type, astuple(expected)))
        assert rows == before                                        # not mutated
        # The PROCEND close rule: the record is not incomplete and every
        # pair filed, read into the record or not, has all of its chunks.
        every_pair_whole = all(reassemble_chunks(group.chunks, group.chunk_total).complete
                               for group in groups.values())
        assert whole == every_pair_whole
        assert (whole and not record.incomplete) == (
            not expected.incomplete and every_pair_whole)

    def test_a_python_record_through_both(self):
        rows = [_unchunked(_SELF_PROCINFO, "exe=/usr/bin/python3|category=python"),
                _unchunked(GROUP_KEYS[Layer.SELF, InfoType.MAPS], _PYTHON_MAPS),
                _unchunked(GROUP_KEYS[Layer.SCRIPT, InfoType.FILE_H], "3:s:h")]
        record, whole = build_process_record(_KEY, rows)
        assert record == oracle.build_process_record(_KEY, oracle.regroup(rows))
        assert (record.python_packages, record.script_h, record.incomplete, whole) == (
            "heapq,numpy", "3:s:h", 1, True)
