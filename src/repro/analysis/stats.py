"""Usage statistics over consolidated process records (Tables 2, 3, 4 and 8).

All functions take the list of :class:`~repro.db.store.ProcessRecord` rows
produced by post-processing plus an optional ``user_names`` mapping from UID to
anonymised label (``user_1`` ...); unmapped UIDs fall back to ``uid_<n>``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.collector.classify import ExecutableCategory
from repro.db.store import ProcessRecord


def user_label(record: ProcessRecord, user_names: dict[int, str] | None) -> str:
    """The user a record is reported under -- every analysis labels users with this."""
    if record.uid is None:
        return "unknown"
    if user_names and record.uid in user_names:
        return user_names[record.uid]
    return f"uid_{record.uid}"


# --------------------------------------------------------------------------- #
# Table 2 -- users, jobs and processes per category
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UserActivityRow:
    """One row of Table 2."""

    user: str
    job_count: int
    system_processes: int
    user_processes: int
    python_processes: int

    @property
    def total_processes(self) -> int:
        """All processes of this user."""
        return self.system_processes + self.user_processes + self.python_processes


def user_activity_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
) -> list[UserActivityRow]:
    """Per-user job and process counts, split by executable category.

    Rows are sorted in descending order of job count, then system-, user- and
    Python-process counts -- the ordering used by Table 2.
    """
    jobs: dict[str, set[str]] = defaultdict(set)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for record in records:
        user = user_label(record, user_names)
        if record.jobid:
            jobs[user].add(record.jobid)
        counts[user][record.category] += 1

    rows = [
        UserActivityRow(
            user=user,
            job_count=len(jobs[user]),
            system_processes=counts[user][ExecutableCategory.SYSTEM.value],
            user_processes=counts[user][ExecutableCategory.USER.value],
            python_processes=counts[user][ExecutableCategory.PYTHON.value],
        )
        for user in counts
    ]
    rows.sort(key=lambda row: (row.job_count, row.system_processes,
                               row.user_processes, row.python_processes), reverse=True)
    return rows


def activity_totals(rows: list[UserActivityRow]) -> UserActivityRow:
    """The "Total" row of Table 2."""
    return UserActivityRow(
        user="Total",
        job_count=sum(row.job_count for row in rows),
        system_processes=sum(row.system_processes for row in rows),
        user_processes=sum(row.user_processes for row in rows),
        python_processes=sum(row.python_processes for row in rows),
    )


# --------------------------------------------------------------------------- #
# Table 3 -- most used system-directory executables
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SystemExecutableRow:
    """One row of Table 3."""

    executable: str
    unique_users: int
    job_count: int
    process_count: int
    unique_objects_h: int


def system_executable_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
    top: int | None = 10,
) -> list[SystemExecutableRow]:
    """Per system executable: users, jobs, processes and distinct library sets."""
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    object_hashes: dict[str, set[str]] = defaultdict(set)
    for record in records:
        if record.category != ExecutableCategory.SYSTEM.value:
            continue
        path = record.executable
        users[path].add(user_label(record, user_names))
        if record.jobid:
            jobs[path].add(record.jobid)
        processes[path] += 1
        if record.objects_h:
            object_hashes[path].add(record.objects_h)

    rows = [
        SystemExecutableRow(
            executable=path,
            unique_users=len(users[path]),
            job_count=len(jobs[path]),
            process_count=processes[path],
            unique_objects_h=len(object_hashes[path]),
        )
        for path in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_objects_h), reverse=True)
    return rows[:top] if top is not None else rows


def system_executable_count(records: list[ProcessRecord]) -> int:
    """Total number of distinct system-directory executables observed."""
    return len({
        record.executable for record in records
        if record.category == ExecutableCategory.SYSTEM.value
    })


# --------------------------------------------------------------------------- #
# Table 4 -- distinct shared-object sets of one executable
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedObjectVariantRow:
    """One row of Table 4: one distinct library set of an executable."""

    executable: str
    process_count: int
    objects: tuple[str, ...]
    distinguishing: dict[str, str]


def shared_object_variant_table(
    records: list[ProcessRecord],
    executable_name: str,
    distinguish: tuple[str, ...] = ("libtinfo", "libm"),
) -> list[SharedObjectVariantRow]:
    """Group processes of one executable by their exact set of loaded objects.

    ``distinguish`` lists library-name substrings whose resolved paths are
    reported per variant (the paper shows ``libtinfo`` and ``libm`` for bash).
    """
    groups: dict[tuple[str, ...], int] = defaultdict(int)
    exe_path = ""
    for record in records:
        if record.executable_name != executable_name:
            continue
        exe_path = record.executable
        key = tuple(record.object_list)
        groups[key] += 1

    rows = []
    for objects, count in groups.items():
        distinguishing: dict[str, str] = {}
        for name in distinguish:
            match = next((path for path in objects if name in path.rsplit("/", 1)[-1]), "")
            distinguishing[name] = match
        rows.append(SharedObjectVariantRow(
            executable=exe_path, process_count=count, objects=objects,
            distinguishing=distinguishing,
        ))
    rows.sort(key=lambda row: row.process_count, reverse=True)
    return rows


# --------------------------------------------------------------------------- #
# Table 8 -- Python interpreters
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PythonInterpreterRow:
    """One row of Table 8."""

    interpreter: str
    unique_users: int
    job_count: int
    process_count: int
    unique_script_h: int


def python_interpreter_table(
    records: list[ProcessRecord],
    user_names: dict[int, str] | None = None,
) -> list[PythonInterpreterRow]:
    """Per Python interpreter: users, jobs, processes and distinct input scripts."""
    users: dict[str, set[str]] = defaultdict(set)
    jobs: dict[str, set[str]] = defaultdict(set)
    processes: dict[str, int] = defaultdict(int)
    scripts: dict[str, set[str]] = defaultdict(set)
    for record in records:
        if record.category != ExecutableCategory.PYTHON.value:
            continue
        name = record.executable_name
        users[name].add(user_label(record, user_names))
        if record.jobid:
            jobs[name].add(record.jobid)
        processes[name] += 1
        if record.script_h:
            scripts[name].add(record.script_h)

    rows = [
        PythonInterpreterRow(
            interpreter=name,
            unique_users=len(users[name]),
            job_count=len(jobs[name]),
            process_count=processes[name],
            unique_script_h=len(scripts[name]),
        )
        for name in processes
    ]
    rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                               row.unique_script_h), reverse=True)
    return rows
