"""Compiler-identification analysis of user applications (Table 6).

Every user-directory executable carries the ``.comment`` producer strings of
all toolchains that contributed objects.  :func:`provenance_label` reads one
such string as a *family [provenance]* label (``GCC [SUSE]``, ``clang
[Cray]`` ...) by rule, with no table of known producers, so a toolchain the
analysis has never seen still gets a label.  Table 6 groups executables by
their *combination* of toolchain labels and reports users, jobs, processes
and distinct executables per combination.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.stats import _USER, user_label
from repro.db.store import ProcessRecord

#: Vendors a GCC producer string may name, in the order they are tried.
_GCC_VENDORS = ("SUSE", "Red Hat", "conda", "HPE", "AMD", "Cray")


def provenance_label(comment: str) -> str:
    """Read a raw ``.comment`` entry as its ``family [provenance]`` label.

    Unknown producers are grouped under their leading token so that novel
    toolchains still show up in reports (the paper highlights exactly this
    ability to reveal "the emergence of novel toolchains").
    """
    lowered = comment.lower()
    if lowered.startswith("gcc"):
        vendor = next((vendor for vendor in _GCC_VENDORS if vendor.lower() in lowered), "")
        return f"GCC [{vendor}]" if vendor else "GCC"
    if "clang" in lowered:
        vendor = "AMD" if "amd" in lowered else ("Cray" if "cray" in lowered else "")
        return f"clang [{vendor}]" if vendor else "clang"
    if "lld" in lowered:
        return "LLD [AMD]" if "amd" in lowered else "LLD"
    if lowered.startswith("rustc"):
        return "rustc"
    return comment.split()[0] if comment.split() else "unknown"


def compiler_labels(comments: list[str]) -> list[str]:
    """Distinct toolchain labels for a list of comment entries, in first-seen order."""
    return list(dict.fromkeys(map(provenance_label, comments)))


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
