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

from repro.analysis.stats import _USER, user_label
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


def derive_label(executable_path: str) -> str:
    """Derive a software label from an executable path (``UNKNOWN`` if no rule matches)."""
    for label, pattern in LABEL_RULES:
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
) -> list[LabelRow]:
    """Derived labels over user-directory processes, with per-label statistics.

    Each distinct path is labelled once (:func:`derive_label` runs its rules
    in turn), however many processes ran it.
    """
    label_of: dict[str, str] = {}
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    file_hashes: dict[str, set[str]] = defaultdict(set)

    for record in records:
        if record.category != _USER:
            continue
        label = label_of.get(record.executable)
        if label is None:
            label = label_of[record.executable] = derive_label(record.executable)
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


def label_by_executable(records: list[ProcessRecord]) -> dict[str, str]:
    """Map of executable path -> derived label over user-directory records,
    each distinct path labelled once."""
    paths = dict.fromkeys(record.executable for record in records
                          if record.category == _USER)
    return {path: derive_label(path) for path in paths}
