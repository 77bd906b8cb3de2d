"""The read-only dict that rows shared between callers carry.

Its ``repr`` and ``==`` must be a dict's (recorded digests are taken over
row reprs), every mutator must raise, and a row must still copy and pickle
as it did when the mapping was a plain dict.
"""

import copy
import pickle

import pytest

from repro.analysis.stats import SharedObjectVariantRow
from repro.util.readonly import ReadOnlyDict


def test_it_prints_and_compares_as_a_dict():
    frozen = ReadOnlyDict({"libtinfo": "/lib64/libtinfo.so.6", "libm": ""})
    plain = {"libtinfo": "/lib64/libtinfo.so.6", "libm": ""}
    assert repr(frozen) == repr(plain)
    assert frozen == plain and plain == frozen
    assert frozen | {"x": "y"} == {**plain, "x": "y"}


@pytest.mark.parametrize("mutate", [
    lambda d: d.__setitem__("a", 2), lambda d: d.__delitem__("a"), lambda d: d.clear(),
    lambda d: d.pop("a"), lambda d: d.popitem(), lambda d: d.setdefault("b", 2),
    lambda d: d.update(a=2), lambda d: d.__ior__({"a": 2}),
])
def test_every_mutator_raises(mutate):
    frozen = ReadOnlyDict(a=1)
    with pytest.raises(TypeError):
        mutate(frozen)
    assert frozen == {"a": 1}


def test_a_row_copies_and_pickles_as_before():
    row = SharedObjectVariantRow(executable="/usr/bin/bash", process_count=3,
                                 objects=("/lib64/libm.so.6",),
                                 distinguishing=ReadOnlyDict(libm="/lib64/libm.so.6"))
    for twin in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert twin == row and repr(twin) == repr(row)
        assert type(twin.distinguishing) is ReadOnlyDict
    mine = row.distinguishing.copy()
    mine["libm"] = ""
    assert row.distinguishing == {"libm": "/lib64/libm.so.6"}
