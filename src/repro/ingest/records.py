"""Consolidate raw UDP messages into one record per process.

Messages arriving from the collector are grouped by the header key
``(JOBID, STEPID, PID, HASH, HOST, TIME)`` -- the ``HASH`` of the executable
path is part of the key precisely so that ``exec()`` chains reusing a PID
within the same second do not collapse into one another (Section 3.1).
Chunked contents are reassembled from whichever chunks survived the trip, the
Python ``SCRIPT`` layer is folded into its parent interpreter row, imported
Python packages are extracted from the memory map, and the result is one
:class:`~repro.db.store.ProcessRecord` per process, flagged ``incomplete``
when a chunk, or a section :data:`~repro.collector.policy.TABLE_1` lists for
its category, is missing.

The record-assembly logic lives in the module-level
:func:`build_process_record`, which the streaming
:class:`~repro.ingest.incremental.IncrementalConsolidator` calls on the raw
rows an open process holds -- at its ``PROCEND``, where the record built is
the close check and the record written, at an idle or final close, and for
a live peek.  It walks the rows once: an unchunked message goes straight
into its slot, only a chunked or repeated ``(LAYER, TYPE)`` pair is
reassembled, and the record is built positionally.  The tests' post-pass
oracle (``tests/oracles/consolidate.py``) regroups a raw ``messages`` table
and hands it to the builder as first written (``tests/oracles/records.py``),
which shares no assembly code with this one.

Python packages from memory maps
--------------------------------
A Python process maps the native extension modules of every imported package
(``_heapq.cpython-311-x86_64-linux-gnu.so`` from the stdlib's ``lib-dynload``
directory, ``numpy/core/_multiarray_umath...so`` from ``site-packages``, ...).
SIREN collects the memory map of interpreter processes,
:func:`parse_mapped_paths` reads the file paths out of it, and
:func:`extract_python_packages` turns them into package names -- the data
behind Figure 3.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import MISSING, fields

from repro.collector.classify import ExecutableCategory
from repro.collector.policy import TABLE_1
from repro.collector.records import InfoType, Layer, parse_keyvalues
from repro.db.store import PROCESS_FIELDS, ProcessKey, ProcessRecord
from repro.transport.chunking import reassemble_chunks
from repro.transport.messages import GROUP_KEYS, GroupKey, MessageRow

#: What every Table 1 scope sends: all that a record whose category the table
#: does not list is owed besides its PROCINFO.
_EVERY_SCOPE = tuple(info_type for info_type in InfoType
                     if all(info_type in sent for sent in TABLE_1.values()))

#: ``""`` stands for every category without an entry of its own.
_EXPECTED_TYPES: dict[str, tuple[InfoType, ...]] = {
    "": (InfoType.PROCINFO, *_EVERY_SCOPE),
    **{category.value: (InfoType.PROCINFO, *TABLE_1[category])
       for category in ExecutableCategory}}


def expected_types_for(category: str) -> tuple[InfoType, ...]:
    """All ``SELF``-layer types whose absence marks a record of ``category``
    incomplete: its PROCINFO and every section
    :data:`~repro.collector.policy.TABLE_1` lists for the category."""
    return _EXPECTED_TYPES.get(category, _EXPECTED_TYPES[""])


PROCINFO_KEY = GROUP_KEYS[Layer.SELF, InfoType.PROCINFO]

_EXPECTED_KEYS: dict[str, tuple[GroupKey, ...]] = {
    category: tuple(GROUP_KEYS[Layer.SELF, info_type]
                    for info_type in expected_types_for(category))
    for category in _EXPECTED_TYPES}


def expected_keys_for(category: str) -> tuple[GroupKey, ...]:
    """:func:`expected_types_for` as the group keys those types are filed under."""
    return _EXPECTED_KEYS.get(category, _EXPECTED_KEYS[""])


_PYTHON = ExecutableCategory.PYTHON.value

#: Where each ``(LAYER, TYPE)`` pair's content lands in the record under
#: assembly, as a position in ``PROCESS_FIELDS``.  Three scratch positions past
#: the record's end take the two PROCINFO pairs, which are parsed instead, and
#: every pair the record does not read (``PROCEND``, unmapped SCRIPT-layer
#: types); they are cut off before the record is constructed.
_PROCINFO, _SCRIPT_PROCINFO, _UNREAD = range(len(PROCESS_FIELDS), len(PROCESS_FIELDS) + 3)
_SLOTS: dict[GroupKey, int] = {
    PROCINFO_KEY: _PROCINFO,
    GROUP_KEYS[Layer.SCRIPT, InfoType.PROCINFO]: _SCRIPT_PROCINFO,
    **{GROUP_KEYS[layer, info_type]: PROCESS_FIELDS.index(column)
       for column, layer, info_type in (
           ("file_metadata", Layer.SELF, InfoType.FILEMETA),
           ("modules", Layer.SELF, InfoType.MODULES),
           ("modules_h", Layer.SELF, InfoType.MODULES_H),
           ("objects", Layer.SELF, InfoType.OBJECTS),
           ("objects_h", Layer.SELF, InfoType.OBJECTS_H),
           ("compilers", Layer.SELF, InfoType.COMPILERS),
           ("compilers_h", Layer.SELF, InfoType.COMPILERS_H),
           ("maps", Layer.SELF, InfoType.MAPS),
           ("maps_h", Layer.SELF, InfoType.MAPS_H),
           ("file_h", Layer.SELF, InfoType.FILE_H),
           ("strings_h", Layer.SELF, InfoType.STRINGS_H),
           ("symbols_h", Layer.SELF, InfoType.SYMBOLS_H),
           # the Python SCRIPT layer, folded into the interpreter's row
           ("script_meta", Layer.SCRIPT, InfoType.FILEMETA),
           ("script_h", Layer.SCRIPT, InfoType.FILE_H),
       )},
}
#: A record with no pair filed: every field at its default (the key's six
#: fields, which have none, are set per record), then the scratch positions.
_EMPTY_ROW = [None if f.default is MISSING else f.default
              for f in fields(ProcessRecord)] + ["", "", ""]
_UID, _GID, _PPID, _EXECUTABLE, _CATEGORY, _MAPS, _SCRIPT_PATH, _PACKAGES, _INCOMPLETE = (
    PROCESS_FIELDS.index(name) for name in (
        "uid", "gid", "ppid", "executable", "category", "maps", "script_path",
        "python_packages", "incomplete"))


def build_process_record(key: ProcessKey, rows: Iterable[MessageRow],
                         values: dict | None = None) -> tuple[ProcessRecord, bool]:
    """Assemble one :class:`ProcessRecord` from the raw rows filed under one
    key, and say whether every ``(LAYER, TYPE)`` pair among them is whole.

    One walk over the rows, in any order.  A pair's first message, when it
    is unchunked (chunk 0 of at most 1), goes straight into its slot.  Only a
    pair that is really chunked or repeated gets a ``{index: content}``
    accumulator -- the last copy of a chunk wins, the total is the largest
    announced, never below 1 -- and is reassembled once at the end by
    :func:`~repro.transport.chunking.reassemble_chunks`.  PROCINFO is parsed
    once and the record constructed positionally.

    A pair is whole when every chunk in ``[0, total)`` arrived; an index
    outside that range is not one of them.  The flag covers every pair
    filed, read into the record or not (``PROCEND``), so a process may close
    on ``PROCEND`` iff the flag is set and the record is not incomplete.
    ``rows`` is not mutated, so a live snapshot may build from an open
    process's rows and the close build again later.

    ``values`` is the caller's table of the values already put into records:
    every string put into this one, and its ``uid`` and ``gid``, go through
    its ``setdefault``, so records built with one table hold one object per
    distinct value of those fields; a ``str`` never equals an ``int``, so
    one table serves both.  The process's own ``pid``, ``ppid`` and start
    ``time`` rarely repeat and are not worth a lookup.  A caller without a
    table gets a private one.
    """
    share = (values if values is not None else {}).setdefault
    jobid, stepid, pid, path_hash, host, time = key
    record = _EMPTY_ROW.copy()
    record[:6] = (share(jobid, jobid), share(stepid, stepid), pid,
                  share(path_hash, path_hash), share(host, host), time)
    slots = _SLOTS
    filed: dict[GroupKey, int] = {}     # every pair seen, to its slot
    parts: dict[GroupKey, list] = {}    # the chunked or repeated: [total, {index: content}]
    for _, _, _, _, _, _, layer, info_type, index, total, content in rows:
        pair = layer, info_type
        if index or total > 1 or pair in filed:
            part = parts.get(pair)
            if part is None:
                slot = filed.get(pair)
                if slot is None:
                    filed[pair] = slots.get(pair, _UNREAD)
                    part = parts[pair] = [1, {}]
                else:   # its first message went straight into the slot
                    part = parts[pair] = [1, {0: record[slot]}]
            part[1][index] = content
            if total > part[0]:
                part[0] = total
        else:
            slot = filed[pair] = slots.get(pair, _UNREAD)
            record[slot] = share(content, content)
    complete = whole = True
    for pair, (total, chunks) in parts.items():
        reassembled = reassemble_chunks(chunks, total)
        slot = filed[pair]
        content = reassembled.content
        record[slot] = share(content, content)
        if not reassembled.complete:
            whole = False
            if slot != _UNREAD:
                complete = False

    info, script = record[_PROCINFO], record[_SCRIPT_PROCINFO]
    del record[_PROCINFO:]
    procinfo = parse_keyvalues(info) if info else {}
    category = procinfo.get("category", "")
    uid, gid = _to_int(procinfo.get("uid")), _to_int(procinfo.get("gid"))
    executable = procinfo.get("exe", "")
    record[_UID], record[_GID] = share(uid, uid), share(gid, gid)
    record[_PPID] = _to_int(procinfo.get("ppid"))
    record[_EXECUTABLE] = share(executable, executable)
    record[_CATEGORY] = share(category, category)
    script_path = parse_keyvalues(script).get("script", "") if script else ""
    record[_SCRIPT_PATH] = share(script_path, script_path)
    # Imported Python packages from the memory map
    maps = record[_MAPS]
    if maps and (category == _PYTHON or script_path):
        packages = ",".join(extract_python_packages(maps))
        record[_PACKAGES] = share(packages, packages)
    if not (complete and all(map(filed.__contains__, expected_keys_for(category)))):
        record[_INCOMPLETE] = 1
    return ProcessRecord(*record), whole


def _to_int(value: str | None) -> int | None:
    try:
        return int(value) if value is not None else None
    except ValueError:
        return None


# --------------------------------------------------------------------------- #
# Python packages from memory maps
# --------------------------------------------------------------------------- #
_CPYTHON_SUFFIX = re.compile(r"\.cpython-[^.]+\.so$|\.so$")


def _stem(filename: str) -> str:
    """File stem with the ``.cpython-XY-...so`` suffix removed."""
    return _CPYTHON_SUFFIX.sub("", filename)


def package_from_mapped_path(path: str) -> str | None:
    """Map one memory-mapped file path to a Python package name (or ``None``).

    * ``.../lib-dynload/_heapq.cpython-311-x86_64-linux-gnu.so`` -> ``heapq``
    * ``.../site-packages/numpy/core/_multiarray_umath...so``    -> ``numpy``
    * ``.../site-packages/numpy.libs/libscipy_openblas64_-...so`` -> ``None``
      (a manylinux wheel's vendored libraries, not an importable name)
    * anything else (the interpreter itself, libc, ...)           -> ``None``
    """
    if "/site-packages/" in path:
        tail = path.split("/site-packages/", 1)[1]
        first = tail.split("/", 1)[0]
        if first.endswith(".libs"):
            return None
        if first.endswith(".so"):
            return _stem(first).lstrip("_") or None
        return first or None
    if "/lib-dynload/" in path:
        filename = path.rsplit("/", 1)[-1]
        name = _stem(filename).lstrip("_")
        return name or None
    return None


def parse_mapped_paths(maps_text: str) -> list[str]:
    """Extract the distinct file paths from a maps listing, in first-seen order.

    This is the post-processing step SIREN applies to the collected maps: the
    pseudo-paths (``[stack]``, ``[heap]``, ``[vdso]``) and anonymous regions
    are dropped, duplicates collapse.
    """
    seen: dict[str, None] = {}
    for line in maps_text.splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6:
            continue
        path = parts[5]
        if path.startswith("["):
            continue
        seen.setdefault(path, None)
    return list(seen)


def extract_python_packages(maps_text: str) -> list[str]:
    """Distinct imported packages from a maps listing, sorted alphabetically."""
    packages: set[str] = set()
    for path in parse_mapped_paths(maps_text):
        name = package_from_mapped_path(path)
        if name:
            packages.add(name)
    return sorted(packages)
