"""Derived software labels for user-directory executables (Table 5).

System operators "can often deduce to which software an executable belongs
based on file or path names by using regular expressions to match with known
software names" (Section 4.3).  This module implements that derivation: an
ordered list of ``(label, regex)`` rules applied to the full executable path;
the first match wins and everything unmatched becomes ``UNKNOWN`` -- which is
exactly the starting point for the similarity search of Table 7.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.stats import user_label
from repro.collector.classify import ExecutableCategory
from repro.db.store import ProcessRecord

UNKNOWN_LABEL = "UNKNOWN"

#: Ordered label-derivation rules (label, compiled pattern on the full path).
LABEL_RULES: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("LAMMPS", re.compile(r"lammps|(^|/)lmp($|[_\-.])", re.IGNORECASE)),
    ("GROMACS", re.compile(r"gromacs|(^|/)gmx", re.IGNORECASE)),
    ("miniconda", re.compile(r"miniconda|(^|/)conda", re.IGNORECASE)),
    ("janko", re.compile(r"janko", re.IGNORECASE)),
    ("icon", re.compile(r"icon", re.IGNORECASE)),
    ("amber", re.compile(r"amber|pmemd|sander", re.IGNORECASE)),
    ("gzip", re.compile(r"(^|/)gzip", re.IGNORECASE)),
    ("alexandria", re.compile(r"alexandria", re.IGNORECASE)),
    ("RadRad", re.compile(r"radrad", re.IGNORECASE)),
)


def derive_label(executable_path: str,
                 rules: tuple[tuple[str, re.Pattern[str]], ...] = LABEL_RULES) -> str:
    """Derive a software label from an executable path (``UNKNOWN`` if no rule matches)."""
    for label, pattern in rules:
        if pattern.search(executable_path):
            return label
    return UNKNOWN_LABEL


@dataclass(frozen=True)
class LabelRow:
    """One row of Table 5."""

    label: str
    unique_users: int
    job_count: int
    process_count: int
    unique_file_h: int


def user_application_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
    rules: tuple[tuple[str, re.Pattern[str]], ...] = LABEL_RULES,
) -> list[LabelRow]:
    """Derived labels over user-directory processes, with per-label statistics."""
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    file_hashes: dict[str, set[str]] = defaultdict(set)

    for record in records:
        if record.category != ExecutableCategory.USER.value:
            continue
        label = derive_label(record.executable, rules)
        user = user_label(record, user_names)
        users[label].add(user)
        if record.jobid:
            jobs[label].add(record.jobid)
        processes[label] += 1
        if record.file_h:
            file_hashes[label].add(record.file_h)

    rows = [
        LabelRow(
            label=label,
            unique_users=len(users[label]),
            job_count=len(jobs[label]),
            process_count=processes[label],
            unique_file_h=len(file_hashes[label]),
        )
        for label in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_file_h), reverse=True)
    return rows


def records_for_label(
    records: list[ProcessRecord],
    label: str,
    rules: tuple[tuple[str, re.Pattern[str]], ...] = LABEL_RULES,
) -> list[ProcessRecord]:
    """All user-directory records whose executable derives to ``label``."""
    return [
        record for record in records
        if record.category == ExecutableCategory.USER.value
        and derive_label(record.executable, rules) == label
    ]


def label_by_executable(
    records: list[ProcessRecord],
    rules: tuple[tuple[str, re.Pattern[str]], ...] = LABEL_RULES,
) -> dict[str, str]:
    """Map of executable path -> derived label over user-directory records."""
    return {
        record.executable: derive_label(record.executable, rules)
        for record in records
        if record.category == ExecutableCategory.USER.value
    }
