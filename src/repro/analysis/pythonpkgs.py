"""Imported Python package analysis (Figure 3).

Per imported package (extracted from interpreter memory maps during
post-processing), count unique users, jobs, processes and unique Python
scripts -- the four y-axes of Figure 3.  The same module also provides the
package *audit* used in the slopsquatting example: flag imported packages that
are not on an allow-list of known-good names.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.analysis.stats import _PYTHON, user_label
from repro.db.store import ProcessRecord


@dataclass(frozen=True)
class PythonPackageRow:
    """One bar group of Figure 3."""

    package: str
    unique_users: int
    job_count: int
    process_count: int
    unique_scripts: int


def python_package_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
) -> list[PythonPackageRow]:
    """Per imported Python package: users, jobs, processes and distinct scripts."""
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    scripts: dict[str, set[str]] = defaultdict(set)

    for record in records:
        if record.category != _PYTHON or not record.python_packages:
            continue
        user = user_label(record, user_names)
        for package in record.python_package_list:
            users[package].add(user)
            if record.jobid:
                jobs[package].add(record.jobid)
            processes[package] += 1
            if record.script_h:
                scripts[package].add(record.script_h)

    rows = [
        PythonPackageRow(
            package=package,
            unique_users=len(users[package]),
            job_count=len(jobs[package]),
            process_count=processes[package],
            unique_scripts=len(scripts[package]),
        )
        for package in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_scripts), reverse=True)
    return rows


@dataclass(frozen=True)
class PackageAuditFinding:
    """One suspicious imported package."""

    package: str
    reason: str
    process_count: int
    users: tuple[str, ...]


def audit_python_packages(
    records: list[ProcessRecord],
    known_packages: set[str],
    insecure_packages: set[str] | None = None,
    user_names: dict[int, str] | None = None,
) -> list[PackageAuditFinding]:
    """Flag imported packages that are unknown or known-insecure.

    ``known_packages`` plays the role of a curated index (PyPI top packages,
    the stdlib, the site's module inventory); anything imported but not on the
    list is a candidate slopsquatting / typosquatting hit.  ``insecure_packages``
    (e.g. the safety-db list referenced in the paper) is flagged regardless.
    """
    insecure = insecure_packages or set()
    rows = python_package_table(records, user_names)
    findings: list[PackageAuditFinding] = []
    by_package = {row.package: row for row in rows}
    user_sets: dict[str, set[str]] = defaultdict(set)
    for record in records:
        if record.category != _PYTHON:
            continue
        user = user_label(record, user_names)
        for package in record.python_package_list:
            user_sets[package].add(user)

    for package, row in sorted(by_package.items()):
        if package in insecure:
            reason = "known insecure package version in use"
        elif package not in known_packages:
            reason = "package not on the known-package allow-list"
        else:
            continue
        findings.append(PackageAuditFinding(
            package=package, reason=reason, process_count=row.process_count,
            users=tuple(sorted(user_sets[package])),
        ))
    return findings
