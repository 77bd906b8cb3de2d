"""Usage statistics over consolidated process records (Tables 2, 3, 4 and 8).

The row types of the four tables, the user label every analysis reports
under, and :class:`TableRollup`, the one implementation of the tables.
:meth:`~TableRollup.fold` absorbs one record at a time, in any order, and
the four view methods render the rows the paper's tables define over the
records sorted by process key (the canonical order every snapshot and every
finalized campaign hands to the analysis).  It has three consumers --
:class:`~repro.core.pipeline.AnalysisPipeline` (one fold of its record list),
:class:`~repro.analysis.live.LiveAnalysis` (committed records, with the
open-group peek overlaid) and the gold tier of
:class:`~repro.db.tiered.TieredStore` (one accumulator per campaign) -- and
one oracle, the batch definitions in ``tests/oracles/tables.py``, which
``tests/analysis/test_rollup.py`` compares it against.

``user_names`` maps UID to the anonymised label (``user_1`` ...); unmapped
UIDs fall back to ``uid_<n>``.

Row and tie order
-----------------
A batch pass over the key-sorted records inserts each group into its dict at
the group's first record, i.e. at the group's *minimum* process key, and the
tables' sorts are stable -- so the pre-sort row order, and with it the order
of rows that tie on every sort column, is "groups by minimum key".  Each
group tracks that minimum; a view orders groups by it before applying the
table's own sort.  Table 4 additionally reports the executable path of the
*last* matching record, which is the one with the *maximum* key.  Minimum,
maximum, set union and addition are all commutative and associative, which
is why ``fold`` may see records in any order.

Overlay views
-------------
Every view takes an optional second accumulator and renders the tables of
both record sets together (their process keys must be disjoint) without
touching either: minima and maxima combine, counts add, and a distinct count
is ``len(base) + (overlay members not in base)`` -- never a copy or union of
a base set, so an overlaid view costs O(overlay + answer) however large the
base is.  The overlay view is the accumulator's merge law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.collector.classify import ExecutableCategory
from repro.db.store import ProcessKey, ProcessRecord

_SYSTEM = ExecutableCategory.SYSTEM.value
_USER = ExecutableCategory.USER.value
_PYTHON = ExecutableCategory.PYTHON.value


def user_label(record: ProcessRecord, user_names: dict[int, str] | None) -> str:
    """The user a record is reported under -- every analysis labels users with this."""
    if record.uid is None:
        return "unknown"
    if user_names and record.uid in user_names:
        return user_names[record.uid]
    return f"uid_{record.uid}"


# --------------------------------------------------------------------------- #
# row types
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UserActivityRow:
    """One row of Table 2: users, jobs and processes per category."""

    user: str
    job_count: int
    system_processes: int
    user_processes: int
    python_processes: int

    @property
    def total_processes(self) -> int:
        """All processes of this user."""
        return self.system_processes + self.user_processes + self.python_processes


def activity_totals(rows: list[UserActivityRow]) -> UserActivityRow:
    """The "Total" row of Table 2."""
    return UserActivityRow(
        user="Total",
        job_count=sum(row.job_count for row in rows),
        system_processes=sum(row.system_processes for row in rows),
        user_processes=sum(row.user_processes for row in rows),
        python_processes=sum(row.python_processes for row in rows),
    )


@dataclass(frozen=True)
class SystemExecutableRow:
    """One row of Table 3: one system-directory executable."""

    executable: str
    unique_users: int
    job_count: int
    process_count: int
    unique_objects_h: int


@dataclass(frozen=True)
class SharedObjectVariantRow:
    """One row of Table 4: one distinct library set of an executable."""

    executable: str
    process_count: int
    objects: tuple[str, ...]
    distinguishing: dict[str, str]


@dataclass(frozen=True)
class PythonInterpreterRow:
    """One row of Table 8: one Python interpreter."""

    interpreter: str
    unique_users: int
    job_count: int
    process_count: int
    unique_script_h: int


# --------------------------------------------------------------------------- #
# the accumulator
# --------------------------------------------------------------------------- #
@dataclass
class _Group:
    """What one Table 2/3/8 row needs of its records."""

    first_key: ProcessKey
    users: set[str] = field(default_factory=set)
    jobs: set[str] = field(default_factory=set)
    hashes: set[str] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)  #: processes per category


@dataclass
class _Variant:
    """One Table 4 row: one distinct object list of one executable name."""

    first_key: ProcessKey
    processes: int = 0


@dataclass
class _Executable:
    """Table 4 state of one executable *name*: its variants and its last path."""

    last_key: ProcessKey
    path: str
    variants: dict[tuple[str, ...], _Variant] = field(default_factory=dict)


# Stand-ins for "this side has no such group".  ``()`` sorts below every
# real key, which is what the maximum in Table 4 needs; minima never read it.
_NO_KEY: ProcessKey = ()  # type: ignore[assignment]
_NO_GROUP = _Group(first_key=_NO_KEY)
_NO_VARIANT = _Variant(first_key=_NO_KEY)
_NO_EXECUTABLE = _Executable(last_key=_NO_KEY, path="")


def _by_first_key(base: dict, overlay: dict, missing) -> list[tuple]:
    """``(name, base group, overlay group)`` of every group, by minimum key."""
    entries = []
    for name, group in base.items():
        other = overlay.get(name)
        if other is None:
            entries.append((group.first_key, name, group, missing))
        else:
            entries.append((min(group.first_key, other.first_key), name, group, other))
    for name, other in overlay.items():
        if name not in base:
            entries.append((other.first_key, name, missing, other))
    entries.sort(key=itemgetter(0))
    return [entry[1:] for entry in entries]


def _distinct(base: set[str], overlay: set[str]) -> int:
    if not overlay:  # every gold query: a third of Table 3's latency otherwise
        return len(base)
    return len(base) + sum(1 for item in overlay if item not in base)


def _processes(base: _Group, overlay: _Group, category: str) -> int:
    return base.counts.get(category, 0) + overlay.counts.get(category, 0)


class TableRollup:
    """Tables 2/3/4/8 of the records folded so far; see the module docstring.

    ``user_names`` maps UID to the anonymised label the user dimensions
    report; it must not change once a record has been folded.
    """

    def __init__(self, user_names: dict[int, str] | None = None) -> None:
        self.user_names = user_names
        self._users: dict[str, _Group] = {}
        self._system: dict[str, _Group] = {}
        self._python: dict[str, _Group] = {}
        self._executables: dict[str, _Executable] = {}
        #: ``objects`` string -> its object list: a campaign repeats a few
        #: hundred library sets over thousands of records, so each is split once.
        self._object_lists: dict[str, tuple[str, ...]] = {}

    def fold(self, record: ProcessRecord) -> None:
        """Absorb one record.  Commutative; a process key is folded at most once."""
        key = record.key
        name = record.executable_name
        user = user_label(record, self.user_names)
        self._fold_group(self._users, user, key, user, record, "")
        if record.category == _SYSTEM:
            self._fold_group(self._system, record.executable, key, user, record,
                             record.objects_h)
        elif record.category == _PYTHON:
            self._fold_group(self._python, name, key, user, record, record.script_h)

        executable = self._executables.get(name)
        if executable is None:
            executable = self._executables[name] = _Executable(
                last_key=key, path=record.executable)
        elif key > executable.last_key:
            executable.last_key = key
            executable.path = record.executable
        objects = self._object_lists.get(record.objects)
        if objects is None:
            objects = self._object_lists[record.objects] = tuple(record.object_list)
        variant = executable.variants.get(objects)
        if variant is None:
            variant = executable.variants[objects] = _Variant(first_key=key)
        elif key < variant.first_key:
            variant.first_key = key
        variant.processes += 1

    @staticmethod
    def _fold_group(groups: dict[str, _Group], name: str, key: ProcessKey, user: str,
                    record: ProcessRecord, content_hash: str) -> None:
        group = groups.get(name)
        if group is None:
            group = groups[name] = _Group(first_key=key)
        elif key < group.first_key:
            group.first_key = key
        group.users.add(user)
        if record.jobid:
            group.jobs.add(record.jobid)
        if content_hash:
            group.hashes.add(content_hash)
        group.counts[record.category] = group.counts.get(record.category, 0) + 1

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def user_activity(
            self, *, overlay: TableRollup | None = None) -> list[UserActivityRow]:
        """Table 2: per-user job and process counts, split by executable category.

        Sorted by job count, then system-, user- and Python-process counts,
        all descending.
        """
        rows = [
            UserActivityRow(
                user=user,
                job_count=_distinct(base.jobs, extra.jobs),
                system_processes=_processes(base, extra, _SYSTEM),
                user_processes=_processes(base, extra, _USER),
                python_processes=_processes(base, extra, _PYTHON),
            )
            for user, base, extra in _by_first_key(
                self._users, overlay._users if overlay else {}, _NO_GROUP)
        ]
        rows.sort(key=lambda row: (row.job_count, row.system_processes,
                                   row.user_processes, row.python_processes), reverse=True)
        return rows

    def system_executables(self, top: int | None = 10, *,
                           overlay: TableRollup | None = None) -> list[SystemExecutableRow]:
        """Table 3: per system executable, users, jobs, processes and distinct
        library sets; the ``top`` rows, or all of them for ``None``."""
        rows = [
            SystemExecutableRow(
                executable=path,
                unique_users=_distinct(base.users, extra.users),
                job_count=_distinct(base.jobs, extra.jobs),
                process_count=_processes(base, extra, _SYSTEM),
                unique_objects_h=_distinct(base.hashes, extra.hashes),
            )
            for path, base, extra in _by_first_key(
                self._system, overlay._system if overlay else {}, _NO_GROUP)
        ]
        rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                                   row.unique_objects_h), reverse=True)
        return rows[:top] if top is not None else rows

    def shared_object_variants(
            self, executable_name: str,
            distinguish: tuple[str, ...] = ("libtinfo", "libm"), *,
            overlay: TableRollup | None = None) -> list[SharedObjectVariantRow]:
        """Table 4: the processes of one executable, grouped by their exact
        list of loaded objects.

        ``distinguish`` lists library-name substrings whose resolved paths are
        reported per variant (the paper shows ``libtinfo`` and ``libm`` for bash).
        """
        base = self._executables.get(executable_name, _NO_EXECUTABLE)
        extra = overlay._executables.get(executable_name, _NO_EXECUTABLE) \
            if overlay else _NO_EXECUTABLE
        path = (base if base.last_key > extra.last_key else extra).path
        rows = [
            SharedObjectVariantRow(
                executable=path,
                process_count=ours.processes + theirs.processes,
                objects=objects,
                distinguishing={
                    name: next((obj for obj in objects
                                if name in obj.rsplit("/", 1)[-1]), "")
                    for name in distinguish},
            )
            for objects, ours, theirs in _by_first_key(
                base.variants, extra.variants, _NO_VARIANT)
        ]
        rows.sort(key=lambda row: row.process_count, reverse=True)
        return rows

    def python_interpreters(
            self, *, overlay: TableRollup | None = None) -> list[PythonInterpreterRow]:
        """Table 8: per Python interpreter, users, jobs, processes and
        distinct input scripts."""
        rows = [
            PythonInterpreterRow(
                interpreter=name,
                unique_users=_distinct(base.users, extra.users),
                job_count=_distinct(base.jobs, extra.jobs),
                process_count=_processes(base, extra, _PYTHON),
                unique_script_h=_distinct(base.hashes, extra.hashes),
            )
            for name, base, extra in _by_first_key(
                self._python, overlay._python if overlay else {}, _NO_GROUP)
        ]
        rows.sort(key=lambda row: (row.unique_users, row.job_count, row.process_count,
                                   row.unique_script_h), reverse=True)
        return rows
