"""Property suite for the one accumulator behind Tables 2/3/4/8.

``tests/oracles/tables.py`` defines the tables as a pass over a record list;
:class:`~repro.analysis.stats.TableRollup` must render exactly those rows
(``==``, so row and tie order too) from records folded one at a time in any
order, alone or with a second accumulator overlaid.  Everything the live
views and the gold tier promise about the tables follows from the three
properties here; their own suites check only what is theirs (deltas, open
groups, dedup, supersede, compaction, backends).

The record pools are tiny on purpose: rows tie on every sort column, users
repeat across groups, two uids share one label, ``jobid``/``objects_h``/
``script_h`` are sometimes empty, ``uid`` is sometimes ``None``, one
executable name lives under several paths, and two ``objects`` strings
split to the same object list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import TableRollup
from repro.db.store import ProcessRecord

from oracles import tables

NAMES = {0: "user_0", 1000: "user_1", 1001: "user_1"}
EXECUTABLE_NAMES = ("bash", "python3", "absent")

_records = st.lists(
    st.builds(
        ProcessRecord,
        jobid=st.sampled_from(["", "1", "2", "10"]),
        stepid=st.sampled_from(["0", "1"]),
        pid=st.integers(1, 4),
        hash=st.sampled_from(["a", "b"]),
        host=st.sampled_from(["n1", "n2"]),
        time=st.integers(0, 1),
        uid=st.sampled_from([None, 0, 1000, 1001, 1002]),
        category=st.sampled_from(["system", "user", "python", ""]),
        executable=st.sampled_from([
            "/usr/bin/bash", "/bin/bash", "/usr/bin/grep", "/usr/bin/python3",
            "/opt/conda/bin/python3", "/home/u/app"]),
        objects=st.sampled_from([
            "", "/lib64/libc.so.6", "/lib64/libc.so.6\n/lib64/libtinfo.so.6",
            "/lib64/libc.so.6\n/lib64/libtinfo.so.6\n",
            "/lib64/libm.so.6\n/opt/lib/libtinfo.so.5"]),
        objects_h=st.sampled_from(["", "o1", "o2"]),
        script_h=st.sampled_from(["", "s1", "s2"]),
    ),
    unique_by=lambda record: record.key, max_size=16)


def _fold(records) -> TableRollup:
    rollup = TableRollup(NAMES)
    for record in records:
        rollup.fold(record)
    return rollup


def _views(rollup: TableRollup, overlay: TableRollup | None = None) -> list:
    return [
        rollup.user_activity(overlay=overlay),
        rollup.system_executables(overlay=overlay),
        rollup.system_executables(top=None, overlay=overlay),
        rollup.python_interpreters(overlay=overlay),
        *[rollup.shared_object_variants(name, overlay=overlay)
          for name in EXECUTABLE_NAMES],
        rollup.shared_object_variants("bash", ("libc", "nothing"), overlay=overlay),
    ]


def _recompute(records) -> list:
    ordered = sorted(records, key=lambda record: record.key)
    return [
        tables.user_activity_table(ordered, NAMES),
        tables.system_executable_table(ordered, NAMES),
        tables.system_executable_table(ordered, NAMES, top=None),
        tables.python_interpreter_table(ordered, NAMES),
        *[tables.shared_object_variant_table(ordered, name)
          for name in EXECUTABLE_NAMES],
        tables.shared_object_variant_table(ordered, "bash", ("libc", "nothing")),
    ]


@settings(max_examples=200, deadline=None)
@given(records=_records, data=st.data())
def test_folding_in_any_order_equals_the_recompute(records, data):
    shuffled = data.draw(st.permutations(records))
    assert _views(_fold(shuffled)) == _recompute(records)


@settings(max_examples=100, deadline=None)
@given(records=_records)
def test_overlay_view_is_the_merge_of_both_sides(records):
    expected = _recompute(records)
    assert _views(_fold(records)) == expected
    for cut in range(len(records) + 1):
        head, tail = _fold(records[:cut]), _fold(records[cut:])
        assert _views(head, tail) == expected
        assert _views(tail, head) == expected


@settings(max_examples=100, deadline=None)
@given(records=_records, cut=st.integers(0, 16))
def test_overlay_view_changes_neither_accumulator(records, cut):
    head, tail = records[:cut], records[cut:]
    base, overlay = _fold(head), _fold(tail)
    _views(base, overlay)
    assert _views(base) == _recompute(head)
    assert _views(overlay) == _recompute(tail)
