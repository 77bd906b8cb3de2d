"""Derived and filtered shared objects of user applications (Figure 2).

For every user-directory process, each loaded shared object path is mapped to
its substring-derived tag (see :mod:`repro.corpus.libraries`), and per tag the
analysis counts unique users, jobs, processes and unique executables -- the
four y-axes of Figure 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.stats import _USER, user_label
from repro.collector.classify import ExecutableCategory
from repro.corpus.libraries import derive_library_tag
from repro.db.store import ProcessRecord


@dataclass(frozen=True)
class LibraryUsageRow:
    """One bar group of Figure 2."""

    tag: str
    unique_users: int
    job_count: int
    process_count: int
    unique_executables: int


def record_library_tags(record: ProcessRecord) -> list[str]:
    """Distinct derived library tags of one record, in first-seen order."""
    seen: dict[str, None] = {}
    for path in record.object_list:
        tag = derive_library_tag(path)
        if tag is not None:
            seen.setdefault(tag, None)
    return list(seen)


def library_usage_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
    category: str = ExecutableCategory.USER.value,
) -> list[LibraryUsageRow]:
    """Per derived library tag: unique users, jobs, processes and executables."""
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    executables: dict[str, set[str]] = defaultdict(set)

    for record in records:
        if record.category != category:
            continue
        user = user_label(record, user_names)
        identity = record.file_h or record.executable
        for tag in record_library_tags(record):
            users[tag].add(user)
            if record.jobid:
                jobs[tag].add(record.jobid)
            processes[tag] += 1
            executables[tag].add(identity)

    rows = [
        LibraryUsageRow(
            tag=tag,
            unique_users=len(users[tag]),
            job_count=len(jobs[tag]),
            process_count=processes[tag],
            unique_executables=len(executables[tag]),
        )
        for tag in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_executables), reverse=True)
    return rows


def library_tags_by_label(
    records: list[ProcessRecord],
    label_of: dict[str, str],
) -> dict[str, set[str]]:
    """Software label -> set of derived library tags (Figure 5 input)."""
    result: dict[str, set[str]] = defaultdict(set)
    for record in records:
        if record.category != _USER:
            continue
        label = label_of.get(record.executable)
        if label is None:
            continue
        result[label].update(record_library_tags(record))
    return dict(result)
