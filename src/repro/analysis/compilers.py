"""Compiler-identification analysis of user applications (Table 6).

Every user-directory executable carries the ``.comment`` producer strings of
all toolchains that contributed objects.  Table 6 groups executables by their
*combination* of toolchain labels and reports users, jobs, processes and
distinct executables per combination.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.stats import _USER, user_label
from repro.corpus.toolchains import compiler_labels
from repro.db.store import ProcessRecord


@dataclass(frozen=True)
class CompilerCombinationRow:
    """One row of Table 6: one combination of compiler labels."""

    compilers: tuple[str, ...]
    unique_users: int
    job_count: int
    process_count: int
    unique_file_h: int

    @property
    def display(self) -> str:
        """Comma-separated label list, as printed in the paper."""
        return ", ".join(self.compilers)


def record_compiler_labels(record: ProcessRecord) -> tuple[str, ...]:
    """Toolchain labels of one record, derived from its raw ``.comment`` strings."""
    return tuple(compiler_labels(record.compiler_list))


def compiler_combination_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
) -> list[CompilerCombinationRow]:
    """Group user-directory processes by compiler-label combination."""
    users: dict[tuple[str, ...], set[str]] = defaultdict(set)
    jobs: dict[tuple[str, ...], set[str]] = defaultdict(set)
    processes: dict[tuple[str, ...], int] = defaultdict(int)
    file_hashes: dict[tuple[str, ...], set[str]] = defaultdict(set)

    for record in records:
        if record.category != _USER:
            continue
        combination = record_compiler_labels(record)
        if not combination:
            continue
        user = user_label(record, user_names)
        users[combination].add(user)
        if record.jobid:
            jobs[combination].add(record.jobid)
        processes[combination] += 1
        if record.file_h:
            file_hashes[combination].add(record.file_h)

    rows = [
        CompilerCombinationRow(
            compilers=combination,
            unique_users=len(users[combination]),
            job_count=len(jobs[combination]),
            process_count=processes[combination],
            unique_file_h=len(file_hashes[combination]),
        )
        for combination in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_file_h), reverse=True)
    return rows


def compilers_by_label(
    records: list[ProcessRecord],
    label_of: dict[str, str],
) -> dict[str, set[str]]:
    """Software label -> set of compiler labels used by its executables (Figure 4 input)."""
    result: dict[str, set[str]] = defaultdict(set)
    for record in records:
        if record.category != _USER:
            continue
        label = label_of.get(record.executable)
        if label is None:
            continue
        result[label].update(record_compiler_labels(record))
    return dict(result)
