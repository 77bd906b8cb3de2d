"""The corpus's truth: what Tables 5-7 and Figures 2-5 must show.

:class:`CorpusTruth` watches a cluster's launches with the launch ledger's
wrap (:func:`~oracles.ledger.watch_launches`, without the ledger's digests)
and keeps one :class:`Run` per user-directory or Python process SIREN
collects: who ran which executable in which job, which
:data:`~repro.corpus.libraries.LIBRARY_CATALOG` libraries it loaded and which
Python packages it imported.  What a user-directory path *is* comes from the
corpus that installed it: its entry in ``CorpusManifest.executables`` and its
package's :class:`~repro.corpus.packages.VariantSpec`.

From those alone it states what the analysis must report.  It imports nothing
from :mod:`repro.analysis` (a tier-1 test reads its imports): no label,
toolchain or library tag here is read back from a record, so the analysis is
checked against what was installed and run, not against itself.

* Table 5: a path's label is its package, or none for a variant installed
  outside its package's tree under a file name of its own (the ``a.out``):
  nothing in such a path names the package.
* Table 6 and Figure 4: an executable's toolchains are the ones its variant
  was built with.
* Table 7: a renamed copy's family is its package.
* Figures 2, 3 and 5: a row counts the runs that loaded that catalog library
  or imported that package.  A tagged library's tag is its catalog key
  (``tests/corpus/test_toolchains_libraries.py`` pins the tag rule to the
  catalog); the :data:`UNTAGGED_LIBRARIES` have no row.  Only packages with a
  compiled extension are mapped, so only those can be seen.

Every row is ``(users, jobs, processes, distinct)``, the four columns each row
of Tables 5 and 6 and Figures 2 and 3 carries; ``distinct`` counts distinct
executables by their bytes (what ``FILE_H`` digests) or, in Figure 3,
distinct scripts by theirs.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from operator import attrgetter

from repro.collector.classify import ExecutableCategory, classify_executable
from repro.collector.policy import should_collect_rank
from repro.corpus.builder import CorpusManifest
from repro.corpus.libraries import LIBRARY_CATALOG
from repro.corpus.packages import PACKAGES_BY_NAME
from repro.corpus.python_env import PYTHON_PACKAGES_BY_NAME
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.process import ProcessContext

from oracles.ledger import hooked, watch_launches

#: Catalog libraries that have no Figure 2 or 5 row of their own: no
#: informative substring names them.  (The spack ``libtinfo`` sits under a
#: ``spack`` directory, but only Table 4's bash, a system tool, loads it.)
UNTAGGED_LIBRARIES = frozenset({
    "libc", "libm", "libdl", "librt", "libstdc++", "libgcc_s", "ld-linux", "libz",
    "libtinfo-default", "libtinfo-spack", "libtinfo-sw", "libreadline", "liblua",
    "libselinux", "libacl", "libpcre", "libcap", "libcrypto", "libexpat", "libffi",
    "libmunge", "libslurm"})
_TAG_OF_PATH = {spec.path: spec.key for spec in LIBRARY_CATALOG
                if spec.key not in UNTAGGED_LIBRARIES}

#: ``(users, jobs, processes, distinct)`` of one row
Counts = tuple[int, int, int, int]


@dataclass(frozen=True)
class Run:
    """One collected user-directory or Python process, as it really ran."""

    user: str
    jobid: str
    executable: str
    category: ExecutableCategory
    content: bytes                  #: the executable's bytes at launch
    libraries: frozenset[str]       #: catalog keys of the tagged libraries it loaded
    packages: frozenset[str]        #: imported packages that map a compiled extension
    script: bytes | None            #: its script's bytes, when it ran one from a file


class CorpusTruth:
    """Every collected launch on ``cluster`` from now on, read against ``manifest``."""

    def __init__(self, cluster: Cluster, manifest: CorpusManifest) -> None:
        self.filesystem, self.library_path = cluster.filesystem, manifest.siren_library
        self.installed = {exe.path: exe for exe in manifest.executables}
        self.runs: list[Run] = []
        self._users = {user.uid: user.username for user in cluster.users.all()}
        watch_launches(cluster, self._record)

    def _record(self, context: ProcessContext) -> None:
        if not (hooked(context, self.library_path)
                and should_collect_rank(context.slurm_procid)):
            return
        category = classify_executable(context.executable)
        if category is ExecutableCategory.SYSTEM:
            return
        script = context.python_script
        self.runs.append(Run(
            user=self._users[context.uid], jobid=context.slurm_job_id,
            executable=context.executable, category=category,
            content=self.filesystem.read(context.executable),
            libraries=frozenset(_TAG_OF_PATH[path] for path in context.loaded_objects
                                if path in _TAG_OF_PATH),
            packages=frozenset(PYTHON_PACKAGES_BY_NAME.keys()
                               & set(context.imported_packages)),
            script=(self.filesystem.read(script) if script and script.startswith("/")
                    and self.filesystem.exists(script) else None)))

    # ------------------------------------------------------------ user paths #
    def user_runs(self) -> list[Run]:
        """The runs of user-directory executables (Tables 5-7, Figures 2, 4, 5)."""
        return [run for run in self.runs if run.category is ExecutableCategory.USER]

    def family(self, path: str) -> str:
        """The package the corpus installed at ``path``."""
        return self.installed[path].package

    def renamed(self, path: str) -> bool:
        """``path``'s variant sits outside its package's tree under a file
        name of its own, so nothing in the path names the package."""
        exe = self.installed[path]
        variant = PACKAGES_BY_NAME[exe.package].variant(exe.variant_id)
        stem = PACKAGES_BY_NAME[exe.package].executable_stem
        return variant.subdir.startswith("/") and variant.filename not in (None, stem)

    def label(self, path: str) -> str | None:
        """Table 5's label of ``path``: its package, or ``None`` when renamed."""
        return None if self.renamed(path) else self.family(path)

    def toolchains(self, path: str) -> tuple[str, ...]:
        """The toolchain labels ``path``'s variant was built with, in build order."""
        return self.installed[path].compilers

    # ---------------------------------------------------------------- tables #
    def table5(self) -> dict[str | None, Counts]:
        """Table 5's rows: per label, the runs of the paths it labels."""
        return _rows(self.user_runs(), lambda run: [self.label(run.executable)],
                     attrgetter("content"))

    def table6(self) -> dict[tuple[str, ...], Counts]:
        """Table 6's rows: per toolchain combination, the runs built with it."""
        return _rows(self.user_runs(), lambda run: [combination] if (
            combination := self.toolchains(run.executable)) else [], attrgetter("content"))

    def figure2(self) -> dict[str, Counts]:
        """Figure 2's rows: per tagged catalog library, the user runs that loaded it."""
        return _rows(self.user_runs(), attrgetter("libraries"), attrgetter("content"))

    def figure3(self) -> dict[str, Counts]:
        """Figure 3's rows: per package, the Python runs that imported it."""
        python = [run for run in self.runs if run.category is ExecutableCategory.PYTHON]
        return _rows(python, attrgetter("packages"), attrgetter("script"))

    def figure4(self) -> set[tuple[str | None, str]]:
        """Figure 4's set cells: (label, toolchain) of every executable run."""
        return {(self.label(run.executable), toolchain) for run in self.user_runs()
                for toolchain in self.toolchains(run.executable)}

    def figure5(self) -> set[tuple[str | None, str]]:
        """Figure 5's set cells: (label, library) of every user run."""
        return {(self.label(run.executable), library) for run in self.user_runs()
                for library in run.libraries}


def _rows(runs: Iterable[Run], keys: Callable[[Run], Iterable],
          distinct: Callable[[Run], bytes | None]) -> dict:
    groups: dict[object, list[Run]] = defaultdict(list)
    for run in runs:
        for key in keys(run):
            groups[key].append(run)
    return {key: (len({run.user for run in group}),
                  len({run.jobid for run in group if run.jobid}),
                  len(group),
                  len({distinct(run) for run in group} - {None}))
            for key, group in groups.items()}

