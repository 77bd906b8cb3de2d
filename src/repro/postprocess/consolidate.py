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
:func:`build_process_record` so the batch :class:`Consolidator` and the
streaming :class:`~repro.ingest.incremental.IncrementalConsolidator` produce
records through literally the same code path -- the equivalence of the two
ingest modes reduces to "both hand the same message groups to the same
function".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.collector.classify import ExecutableCategory
from repro.collector.records import InfoType, Layer, parse_keyvalues
from repro.db.store import MessageStore, ProcessKey, ProcessRecord
from repro.postprocess.python_merge import extract_python_packages
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


_SCRIPT_PROCINFO = GROUP_KEYS[Layer.SCRIPT, InfoType.PROCINFO]
_PYTHON = ExecutableCategory.PYTHON.value

#: Record columns filled verbatim from one group's content ("" when absent).
_CONTENT_COLUMNS: tuple[tuple[str, GroupKey], ...] = tuple(
    (column, GROUP_KEYS[layer, info_type]) for column, layer, info_type in (
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
    ))


def build_process_record(key: ProcessKey,
                         groups: dict[GroupKey, MessageGroup]) -> ProcessRecord:
    """Assemble one :class:`ProcessRecord` from the message groups of one key.

    Pure function of its inputs: ``groups`` is not mutated, so callers may
    build a record from still-open groups (live snapshots) and rebuild later.
    """
    jobid, stepid, pid, path_hash, host, time = key
    missing_chunks = False

    def content_of(group_key: GroupKey) -> str:
        nonlocal missing_chunks
        group = groups.get(group_key)
        if group is None:
            return ""
        content, complete = group.reassemble()
        if not complete:
            missing_chunks = True
        return content

    info = parse_keyvalues(content_of(PROCINFO_KEY))
    category = info.get("category", "")
    contents = {column: content_of(group_key) for column, group_key in _CONTENT_COLUMNS}
    script_path = parse_keyvalues(content_of(_SCRIPT_PROCINFO)).get("script", "")

    # Imported Python packages from the memory map ---------------------- #
    maps = contents["maps"]
    python_packages = ""
    if maps and (category == _PYTHON or script_path):
        python_packages = ",".join(extract_python_packages(maps))

    return ProcessRecord(
        jobid=jobid, stepid=stepid, pid=pid, hash=path_hash, host=host, time=time,
        uid=_to_int(info.get("uid")), gid=_to_int(info.get("gid")),
        ppid=_to_int(info.get("ppid")),
        executable=info.get("exe", ""), category=category,
        script_path=script_path, python_packages=python_packages,
        incomplete=int(missing_chunks or _has_missing_types(category, groups)),
        **contents)


def _has_missing_types(category: str, groups: dict[GroupKey, MessageGroup]) -> bool:
    return any(key not in groups for key in expected_keys_for(category))


@dataclass
class Consolidator:
    """Turns the raw ``messages`` table into consolidated ``processes`` rows."""

    store: MessageStore
    records_built: int = 0
    incomplete_records: int = 0

    def run(self, *, clear_messages: bool = False) -> list[ProcessRecord]:
        """Consolidate everything currently in the store.

        The resulting records are inserted into the ``processes`` table and
        returned.  ``clear_messages=True`` drops the raw messages afterwards.
        """
        grouped: dict[ProcessKey, dict[GroupKey, MessageGroup]] = defaultdict(dict)
        for row in self.store.iter_messages():
            jobid, stepid, pid, path_hash, host, time, layer, info_type, idx, total, content = row
            key: ProcessKey = (jobid, stepid, pid, path_hash, host, time)
            group_key = (layer, info_type)
            group = grouped[key].setdefault(group_key, MessageGroup())
            group.add(idx, total, content)

        records = [self._build_record(key, groups) for key, groups in sorted(grouped.items())]
        self.store.insert_processes(records)
        self.records_built += len(records)
        if clear_messages:
            self.store.clear_messages()
        return records

    def _build_record(self, key: ProcessKey,
                      groups: dict[GroupKey, MessageGroup]) -> ProcessRecord:
        record = build_process_record(key, groups)
        if record.incomplete:
            self.incomplete_records += 1
        return record


def _to_int(value: str | None) -> int | None:
    try:
        return int(value) if value is not None else None
    except ValueError:
        return None


def consolidate_store(store: MessageStore, *, clear_messages: bool = False) -> list[ProcessRecord]:
    """Convenience wrapper: consolidate ``store`` and return the records."""
    return Consolidator(store).run(clear_messages=clear_messages)
