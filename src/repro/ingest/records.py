"""Consolidate raw UDP messages into one record per process.

Messages arriving from the collector are grouped by the header key
``(JOBID, STEPID, PID, HASH, HOST, TIME)`` -- the ``HASH`` of the executable
path is part of the key precisely so that ``exec()`` chains reusing a PID
within the same second do not collapse into one another (Section 3.1).
Chunked contents are reassembled from whichever chunks survived the trip, the
Python ``SCRIPT`` layer is folded into its parent interpreter row, imported
Python packages are extracted from the memory map, and the result is one
:class:`~repro.db.store.ProcessRecord` per process, flagged ``incomplete``
when any expected piece is missing.

The record-assembly logic lives in the module-level
:func:`build_process_record`, which the streaming
:class:`~repro.ingest.incremental.IncrementalConsolidator` calls once for
every closed (or peeked) message group: it walks the groups that are present
once and builds the record positionally.  The tests' post-pass oracle
(``tests/oracles/consolidate.py``) regroups a raw ``messages`` table and
hands it to the builder as first written (``tests/oracles/records.py``),
which shares no assembly code with this one.

Python packages from memory maps
--------------------------------
A Python process maps the native extension modules of every imported package
(``_heapq.cpython-311-x86_64-linux-gnu.so`` from the stdlib's ``lib-dynload``
directory, ``numpy/core/_multiarray_umath...so`` from ``site-packages``, ...).
SIREN collects the memory map of interpreter processes, and
:func:`extract_python_packages` turns the mapped paths into package names --
the data behind Figure 3.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields

from repro.collector.classify import ExecutableCategory
from repro.collector.records import InfoType, Layer, parse_keyvalues
from repro.db.store import PROCESS_FIELDS, ProcessKey, ProcessRecord
from repro.hpcsim.memmap import parse_mapped_paths
from repro.transport.chunking import reassemble_chunks

#: Message types expected for every collected process (used for the incomplete flag).
_ALWAYS_EXPECTED = (InfoType.PROCINFO, InfoType.FILEMETA)

#: Content types per category whose absence marks a record incomplete.
_EXPECTED_BY_CATEGORY: dict[str, tuple[InfoType, ...]] = {
    ExecutableCategory.SYSTEM.value: (InfoType.OBJECTS,),
    ExecutableCategory.USER.value: (
        InfoType.OBJECTS, InfoType.MODULES, InfoType.COMPILERS, InfoType.MAPS,
        InfoType.FILE_H, InfoType.STRINGS_H, InfoType.SYMBOLS_H,
    ),
    ExecutableCategory.PYTHON.value: (InfoType.OBJECTS, InfoType.MAPS),
}


def expected_types_for(category: str) -> tuple[InfoType, ...]:
    """All ``SELF``-layer types whose absence marks a record of ``category`` incomplete."""
    return _ALWAYS_EXPECTED + _EXPECTED_BY_CATEGORY.get(category, ())


GroupKey = tuple[str, str]

#: The ``(LAYER, TYPE)`` wire values a message's group is filed under, by
#: member pair.  Built once: ``.value`` is a Python-level property, too dear
#: to evaluate per datagram.
GROUP_KEYS: dict[tuple[Layer, InfoType], GroupKey] = {
    (layer, info_type): (layer.value, info_type.value)
    for layer in Layer for info_type in InfoType}
PROCINFO_KEY = GROUP_KEYS[Layer.SELF, InfoType.PROCINFO]

#: ``""`` stands for every category without an entry of its own.
_EXPECTED_KEYS: dict[str, tuple[GroupKey, ...]] = {
    category: tuple(GROUP_KEYS[Layer.SELF, info_type]
                    for info_type in expected_types_for(category))
    for category in ("", *_EXPECTED_BY_CATEGORY)}


def expected_keys_for(category: str) -> tuple[GroupKey, ...]:
    """:func:`expected_types_for` as the group keys those types are filed under."""
    return _EXPECTED_KEYS.get(category, _EXPECTED_KEYS[""])


@dataclass
class MessageGroup:
    """All message chunks of one (process, layer, type)."""

    chunks: dict[int, str] = field(default_factory=dict)
    chunk_total: int = 1

    def add(self, chunk_index: int, chunk_total: int, content: str) -> None:
        self.chunks[chunk_index] = content
        if chunk_total > self.chunk_total:
            self.chunk_total = chunk_total

    @property
    def all_chunks_present(self) -> bool:
        """True once every announced chunk has arrived."""
        return len(self.chunks) >= self.chunk_total

    def reassemble(self) -> tuple[str, bool]:
        """The content that arrived, in order, and whether all of it did."""
        if self.chunk_total == 1 and 0 in self.chunks:
            # An unchunked message: chunk 0 is the content, and any other
            # index is out of range, which reassemble_chunks drops too.
            return self.chunks[0], True
        result = reassemble_chunks(self.chunks, self.chunk_total)
        return result.content, result.complete


_PYTHON = ExecutableCategory.PYTHON.value

#: Where each group's content lands in the record, as a position in
#: ``PROCESS_FIELDS``; the two PROCINFO groups are parsed instead, and any
#: other group (``PROCEND``, unmapped SCRIPT-layer types) is not read at all.
_PROCINFO, _SCRIPT_PROCINFO = -1, -2
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
#: A record with no group present: every field at its default (the key's
#: six fields, which have none, are set per record).
_EMPTY_ROW = [None if f.default is MISSING else f.default for f in fields(ProcessRecord)]
_UID, _GID, _PPID, _EXECUTABLE, _CATEGORY, _MAPS, _SCRIPT_PATH, _PACKAGES, _INCOMPLETE = (
    PROCESS_FIELDS.index(name) for name in (
        "uid", "gid", "ppid", "executable", "category", "maps", "script_path",
        "python_packages", "incomplete"))


def build_process_record(key: ProcessKey, groups: dict[GroupKey, MessageGroup],
                         procinfo: dict[str, str] | None = None) -> ProcessRecord:
    """Assemble one :class:`ProcessRecord` from the message groups of one key.

    One pass over the groups that are present: each is reassembled once and
    its content put in place, PROCINFO is parsed once, and the record is
    constructed positionally.  ``procinfo`` is that parse when the caller
    already has it (the PROCEND close, which read the category from it); it
    must be ``parse_keyvalues`` of the PROCINFO group's reassembled content,
    or ``{}`` without one.  Pure function of its inputs: neither ``groups``
    nor ``procinfo`` is mutated, so callers may build a record from
    still-open groups (live snapshots) and rebuild later.
    """
    row = _EMPTY_ROW.copy()
    row[:6] = key
    info = script = ""
    complete = True
    slots = _SLOTS
    for group_key, group in groups.items():
        slot = slots.get(group_key)
        if slot is None:
            continue
        content, whole = group.reassemble()
        complete = complete and whole
        if slot >= 0:
            row[slot] = content
        elif slot == _PROCINFO:
            info = content
        else:
            script = content

    if procinfo is None:
        procinfo = parse_keyvalues(info) if info else {}
    category = procinfo.get("category", "")
    row[_UID] = _to_int(procinfo.get("uid"))
    row[_GID] = _to_int(procinfo.get("gid"))
    row[_PPID] = _to_int(procinfo.get("ppid"))
    row[_EXECUTABLE] = procinfo.get("exe", "")
    row[_CATEGORY] = category
    script_path = parse_keyvalues(script).get("script", "") if script else ""
    row[_SCRIPT_PATH] = script_path
    # Imported Python packages from the memory map
    maps = row[_MAPS]
    if maps and (category == _PYTHON or script_path):
        row[_PACKAGES] = ",".join(extract_python_packages(maps))
    if not (complete and all(map(groups.__contains__, expected_keys_for(category)))):
        row[_INCOMPLETE] = 1
    return ProcessRecord(*row)


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
    * anything else (the interpreter itself, libc, ...)           -> ``None``
    """
    if "/site-packages/" in path:
        tail = path.split("/site-packages/", 1)[1]
        first = tail.split("/", 1)[0]
        if first.endswith(".so"):
            return _stem(first).lstrip("_") or None
        return first or None
    if "/lib-dynload/" in path:
        filename = path.rsplit("/", 1)[-1]
        name = _stem(filename).lstrip("_")
        return name or None
    return None


def extract_python_packages(maps_text: str) -> list[str]:
    """Distinct imported packages from a maps listing, sorted alphabetically."""
    packages: set[str] = set()
    for path in parse_mapped_paths(maps_text):
        name = package_from_mapped_path(path)
        if name:
            packages.add(name)
    return sorted(packages)
