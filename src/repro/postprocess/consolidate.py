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


@dataclass
class MessageGroup:
    """All message chunks of one (process, layer, type)."""

    chunks: dict[int, str] = field(default_factory=dict)
    chunk_total: int = 1

    def add(self, chunk_index: int, chunk_total: int, content: str) -> None:
        self.chunks[chunk_index] = content
        self.chunk_total = max(self.chunk_total, chunk_total)

    @property
    def all_chunks_present(self) -> bool:
        """True once every announced chunk has arrived."""
        return len(self.chunks) >= self.chunk_total

    def reassemble(self) -> tuple[str, bool]:
        result = reassemble_chunks(self.chunks, self.chunk_total)
        return result.content, result.complete


GroupKey = tuple[str, str]


def build_process_record(key: ProcessKey,
                         groups: dict[GroupKey, MessageGroup]) -> ProcessRecord:
    """Assemble one :class:`ProcessRecord` from the message groups of one key.

    Pure function of its inputs: ``groups`` is not mutated, so callers may
    build a record from still-open groups (live snapshots) and rebuild later.
    """
    jobid, stepid, pid, path_hash, host, time = key
    record = ProcessRecord(jobid=jobid, stepid=stepid, pid=pid, hash=path_hash,
                           host=host, time=time)
    missing_chunks = False

    def content_of(layer: Layer, info_type: InfoType) -> str | None:
        nonlocal missing_chunks
        group = groups.get((layer.value, info_type.value))
        if group is None:
            return None
        content, complete = group.reassemble()
        if not complete:
            missing_chunks = True
        return content

    procinfo = content_of(Layer.SELF, InfoType.PROCINFO)
    if procinfo:
        info = parse_keyvalues(procinfo)
        record.executable = info.get("exe", "")
        record.category = info.get("category", "")
        record.uid = _to_int(info.get("uid"))
        record.gid = _to_int(info.get("gid"))
        record.ppid = _to_int(info.get("ppid"))

    record.file_metadata = content_of(Layer.SELF, InfoType.FILEMETA) or ""
    record.modules = content_of(Layer.SELF, InfoType.MODULES) or ""
    record.modules_h = content_of(Layer.SELF, InfoType.MODULES_H) or ""
    record.objects = content_of(Layer.SELF, InfoType.OBJECTS) or ""
    record.objects_h = content_of(Layer.SELF, InfoType.OBJECTS_H) or ""
    record.compilers = content_of(Layer.SELF, InfoType.COMPILERS) or ""
    record.compilers_h = content_of(Layer.SELF, InfoType.COMPILERS_H) or ""
    record.maps = content_of(Layer.SELF, InfoType.MAPS) or ""
    record.maps_h = content_of(Layer.SELF, InfoType.MAPS_H) or ""
    record.file_h = content_of(Layer.SELF, InfoType.FILE_H) or ""
    record.strings_h = content_of(Layer.SELF, InfoType.STRINGS_H) or ""
    record.symbols_h = content_of(Layer.SELF, InfoType.SYMBOLS_H) or ""

    # Merge the Python SCRIPT layer into the interpreter row ------------ #
    script_info = content_of(Layer.SCRIPT, InfoType.PROCINFO)
    if script_info:
        record.script_path = parse_keyvalues(script_info).get("script", "")
    record.script_meta = content_of(Layer.SCRIPT, InfoType.FILEMETA) or ""
    record.script_h = content_of(Layer.SCRIPT, InfoType.FILE_H) or ""

    # Imported Python packages from the memory map ---------------------- #
    if record.maps and (record.category == ExecutableCategory.PYTHON.value
                        or record.script_path):
        record.python_packages = ",".join(extract_python_packages(record.maps))

    record.incomplete = int(missing_chunks or _has_missing_types(record, groups))
    return record


def _has_missing_types(record: ProcessRecord,
                       groups: dict[GroupKey, MessageGroup]) -> bool:
    present = {key for key in groups if key[0] == Layer.SELF.value}
    for expected in expected_types_for(record.category):
        if (Layer.SELF.value, expected.value) not in present:
            return True
    return False


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
