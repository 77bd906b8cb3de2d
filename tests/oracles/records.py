"""The record builder as first written: the oracle the fast builder is pinned to.

:func:`~repro.ingest.records.build_process_record` walks a process's raw rows
once and fills the record positionally.  This is the same contract written
the plain way -- the rows regrouped into one :class:`MessageGroup` per
``(LAYER, TYPE)`` pair, one lookup per record column, a keyword constructor,
``reassemble_chunks`` for every group -- and it shares no assembly code with
the streaming path: only the wire spelling of the group keys, the category's
expected types and the memory-map package parser.  The post-pass oracle
(``tests/oracles/consolidate.py``) builds its records here, and
``tests/ingest/test_records.py`` pins the two builders equal over random row
lists.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.collector.records import InfoType, Layer, parse_keyvalues
from repro.db.store import ProcessKey, ProcessRecord
from repro.ingest.records import expected_types_for, extract_python_packages
from repro.transport.chunking import reassemble_chunks
from repro.transport.messages import MessageRow

GroupKey = tuple[str, str]


@dataclass
class MessageGroup:
    """All message chunks of one (process, layer, type): the last copy of a
    chunk wins, and the total is the largest announced, never below 1."""

    chunks: dict[int, str] = field(default_factory=dict)
    chunk_total: int = 1

    def add(self, chunk_index: int, chunk_total: int, content: str) -> None:
        self.chunks[chunk_index] = content
        if chunk_total > self.chunk_total:
            self.chunk_total = chunk_total


def regroup(rows: Iterable[MessageRow]) -> dict[GroupKey, MessageGroup]:
    """One process's raw rows as one :class:`MessageGroup` per ``(LAYER, TYPE)``."""
    groups: dict[GroupKey, MessageGroup] = {}
    for *_key, layer, info_type, chunk_index, chunk_total, content in rows:
        groups.setdefault((layer, info_type), MessageGroup()).add(
            chunk_index, chunk_total, content)
    return groups


#: Record columns filled verbatim from one group's content ("" when absent).
CONTENT_COLUMNS: tuple[tuple[str, GroupKey], ...] = tuple(
    (column, (layer.value, info_type.value)) for column, layer, info_type in (
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
PROCINFO_KEY: GroupKey = (Layer.SELF.value, InfoType.PROCINFO.value)
SCRIPT_PROCINFO_KEY: GroupKey = (Layer.SCRIPT.value, InfoType.PROCINFO.value)


def build_process_record(key: ProcessKey,
                         groups: dict[GroupKey, MessageGroup]) -> ProcessRecord:
    """One :class:`ProcessRecord` from the message groups of one key."""
    jobid, stepid, pid, path_hash, host, time = key
    missing_chunks = False

    def content_of(group_key: GroupKey) -> str:
        nonlocal missing_chunks
        group = groups.get(group_key)
        if group is None:
            return ""
        result = reassemble_chunks(group.chunks, group.chunk_total)
        if not result.complete:
            missing_chunks = True
        return result.content

    info = parse_keyvalues(content_of(PROCINFO_KEY))
    category = info.get("category", "")
    contents = {column: content_of(group_key) for column, group_key in CONTENT_COLUMNS}
    script_path = parse_keyvalues(content_of(SCRIPT_PROCINFO_KEY)).get("script", "")

    maps = contents["maps"]
    python_packages = ""
    if maps and (category == "python" or script_path):
        python_packages = ",".join(extract_python_packages(maps))

    missing_types = any((Layer.SELF.value, info_type.value) not in groups
                        for info_type in expected_types_for(category))
    return ProcessRecord(
        jobid=jobid, stepid=stepid, pid=pid, hash=path_hash, host=host, time=time,
        uid=_to_int(info.get("uid")), gid=_to_int(info.get("gid")),
        ppid=_to_int(info.get("ppid")),
        executable=info.get("exe", ""), category=category,
        script_path=script_path, python_packages=python_packages,
        incomplete=int(missing_chunks or missing_types),
        **contents)


def _to_int(value: str | None) -> int | None:
    try:
        return int(value) if value is not None else None
    except ValueError:
        return None
