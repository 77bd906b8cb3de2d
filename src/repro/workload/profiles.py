"""Per-user behaviour profiles of the deployment campaign.

Each :class:`UserProfile` describes one of the 12 opt-in users: how many jobs
they submitted over the campaign (at scale 1.0, the paper's Table 2 counts),
and a set of weighted :class:`JobTemplate` entries describing what a typical
job of theirs does -- which system tools run how many times, which scientific
package variants execute with how many MPI ranks, and which Python
interpreter/scripts they drive.

The calibration targets the *relative* structure of Tables 2, 3, 5 and 8:

* ``user_1`` submits the vast majority of jobs and only ever runs system
  tools, dominated by ``mkdir``/``rm`` loops;
* ``user_4`` runs huge system-tool fan-outs plus Python 3.6/3.11 workloads and
  a conda-based toolchain in its user directory;
* ``user_2``/``user_10`` share LAMMPS, ``user_2``/``user_8`` share GROMACS,
  ``user_8`` owns the many ICON variants (including the nondescript ``a.out``
  copies behind Table 7), and the remaining users map one-to-one onto janko,
  amber, gzip, alexandria and RadRad;
* ``user_6`` never launches anything from a system directory (no ``srun``,
  no ``lua``), matching the paper's observation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AppRun:
    """One scientific-application execution inside a job."""

    package: str
    variant_id: str
    ranks: int = 2
    count: int = 1


@dataclass(frozen=True)
class PythonRun:
    """One Python interpreter execution inside a job."""

    interpreter: str
    script_tag: str                       #: per-user script identity (distinct tag = distinct script)
    packages: tuple[str, ...]
    count: int = 1


@dataclass(frozen=True)
class JobTemplate:
    """What one kind of job does."""

    name: str
    weight: float = 1.0
    system_calls: tuple[tuple[str, int], ...] = ()
    app_runs: tuple[AppRun, ...] = ()
    python_runs: tuple[PythonRun, ...] = ()
    extra_modules: tuple[str, ...] = ()
    uses_srun: bool = True
    uses_module_loads: bool = True        #: whether lua (module command) appears


@dataclass(frozen=True)
class UserProfile:
    """One opt-in user."""

    username: str
    job_count: int                         #: jobs at scale 1.0 (Table 2)
    templates: tuple[JobTemplate, ...]
    opt_in: bool = True                    #: loads the siren module in job scripts

    def template_weights(self) -> list[float]:
        """Weights of the job templates."""
        return [template.weight for template in self.templates]


# --------------------------------------------------------------------------- #
# common template fragments
# --------------------------------------------------------------------------- #
_BATCH_PROLOGUE: tuple[tuple[str, int], ...] = (("bash", 2), ("uname", 1), ("cat", 1))
_MODULE_LOAD: tuple[tuple[str, int], ...] = (("lua5.3", 2),)


def _sys(*pairs: tuple[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(pairs)


DEFAULT_PROFILES: tuple[UserProfile, ...] = (
    # user_1: file-management pipelines, system tools only, no srun/lua in most jobs.
    UserProfile(
        username="user_1", job_count=11_782,
        templates=(
            JobTemplate(
                name="file-churn", weight=0.92, uses_srun=False, uses_module_loads=False,
                system_calls=_sys(("bash", 12), ("mkdir", 45), ("rm", 44), ("cat", 2),
                                  ("uname", 2), ("ls", 1), ("cp", 1)),
            ),
            JobTemplate(
                name="file-churn-with-grep", weight=0.08, uses_srun=False,
                uses_module_loads=False,
                system_calls=_sys(("bash", 12), ("mkdir", 50), ("rm", 50), ("grep", 8),
                                  ("cat", 3), ("ls", 2), ("date", 1)),
            ),
        ),
    ),
    # user_2: LAMMPS + GROMACS production runs.
    UserProfile(
        username="user_2", job_count=930,
        templates=(
            JobTemplate(
                name="lammps-prod", weight=0.25,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 3), ("ls", 2),
                                                                   ("grep", 1), ("cp", 1)),
                app_runs=(AppRun("LAMMPS", "gpu-2023", ranks=4),),
            ),
            JobTemplate(
                name="lammps-ml", weight=0.10,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 3), ("mkdir", 2)),
                app_runs=(AppRun("LAMMPS", "ml-torch", ranks=4),),
            ),
            JobTemplate(
                name="gromacs-prod", weight=0.25,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 2), ("cat", 4),
                                                                   ("cp", 2)),
                app_runs=(AppRun("GROMACS", "shared-2024", ranks=4),),
            ),
            JobTemplate(
                name="pre-post-processing", weight=0.30, uses_srun=False,
                system_calls=_sys(("bash", 8), ("cat", 20), ("grep", 5), ("ls", 4),
                                  ("rm", 6), ("cp", 4), ("uname", 1)),
            ),
            JobTemplate(
                name="workspace-setup", weight=0.10, uses_srun=False,
                system_calls=_sys(("bash", 6), ("mkdir", 8), ("find", 3), ("sort", 2),
                                  ("head", 2), ("tail", 2), ("wc", 2), ("du", 1), ("df", 1),
                                  ("echo", 4), ("hostname", 1), ("id", 1), ("date", 2),
                                  ("tee", 1), ("cut", 2), ("tr", 1), ("xargs", 1),
                                  ("sed", 2), ("gawk", 2), ("tar", 1), ("gzip", 1),
                                  ("md5sum", 1), ("stat", 2), ("readlink", 1), ("ln", 1),
                                  ("touch", 3), ("chmod", 1), ("basename", 1), ("dirname", 1),
                                  ("diff", 1), ("seq", 1), ("env", 1), ("sleep", 1),
                                  ("rsync", 1), ("ssh", 1), ("file", 1), ("numactl", 1)),
            ),
        ),
    ),
    # user_11: janko lattice QCD runs.
    UserProfile(
        username="user_11", job_count=230,
        templates=(
            JobTemplate(
                name="janko-hmc", weight=0.6,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 2), ("ls", 2),
                                                                   ("mkdir", 1)),
                app_runs=(AppRun("janko", "prod", ranks=1),),
            ),
            JobTemplate(
                name="janko-devel", weight=0.15,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 1),),
                app_runs=(AppRun("janko", "devel", ranks=1),),
            ),
            JobTemplate(
                name="bookkeeping", weight=0.25, uses_srun=False,
                system_calls=_sys(("bash", 4), ("cat", 3), ("ls", 2), ("grep", 2)),
            ),
        ),
    ),
    # user_8: the ICON climate user -- many variants, including the a.out copies.
    UserProfile(
        username="user_8", job_count=216,
        templates=(
            JobTemplate(
                name="icon-coupled", weight=0.30,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 3), ("mkdir", 3),
                                                                   ("rm", 2), ("cat", 4)),
                app_runs=(AppRun("icon", "cray-r1", ranks=4), AppRun("icon", "coupler", ranks=1)),
                extra_modules=("cray-netcdf", "cray-hdf5"),
            ),
            JobTemplate(
                name="icon-gpu", weight=0.20,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 2), ("cat", 2)),
                app_runs=(AppRun("icon", "gpu-amd-r1", ranks=4), AppRun("icon", "gpu-amd-r2", ranks=2)),
                extra_modules=("rocm",),
            ),
            JobTemplate(
                name="icon-experiments", weight=0.20,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 2), ("ls", 3)),
                app_runs=(AppRun("icon", "cray-r2", ranks=2), AppRun("icon", "cray-r3", ranks=1),
                          AppRun("icon", "cray-r4", ranks=1), AppRun("icon", "ocean-only", ranks=1),
                          AppRun("icon", "atmo-only", ranks=1), AppRun("icon", "pre-proc", ranks=1)),
                extra_modules=("cray-netcdf", "cray-hdf5"),
            ),
            JobTemplate(
                name="icon-unknown-run", weight=0.15,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 1), ("cat", 1)),
                app_runs=(AppRun("icon", "unknown-copy", ranks=2),
                          AppRun("icon", "unknown-patched", ranks=1)),
                extra_modules=("cray-netcdf", "cray-hdf5"),
            ),
            JobTemplate(
                name="gromacs-side-project", weight=0.15,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 1),),
                app_runs=(AppRun("GROMACS", "shared-2024", ranks=2),),
            ),
        ),
    ),
    # user_4: enormous system fan-out, conda toolchain, Python 3.6 / 3.11 pipelines.
    UserProfile(
        username="user_4", job_count=205,
        templates=(
            JobTemplate(
                name="ensemble-python36", weight=0.55,
                system_calls=_sys(("bash", 40), ("srun", 2), ("rm", 900), ("mkdir", 900),
                                  ("cat", 30), ("uname", 60), ("ls", 10), ("grep", 6),
                                  ("cp", 6), ("sed", 4)),
                python_runs=(PythonRun("python3.6", "ensemble-driver",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "json", "socket", "random"),
                                       count=36),
                             PythonRun("python3.6", "ensemble-merge",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "numpy", "mpi4py", "pickle"),
                                       count=36),),
            ),
            JobTemplate(
                name="analysis-python311", weight=0.25,
                system_calls=_sys(("bash", 30), ("srun", 2), ("rm", 700), ("mkdir", 700),
                                  ("cat", 20), ("uname", 40), ("ls", 8)),
                python_runs=(PythonRun("python3.11", "postproc-stats",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "numpy", "pandas", "scipy",
                                        "datetime", "csv", "json", "zoneinfo"),
                                       count=40),),
            ),
            JobTemplate(
                name="conda-tooling", weight=0.20, uses_srun=False,
                system_calls=_sys(("bash", 20), ("rm", 250), ("mkdir", 250), ("cat", 10),
                                  ("uname", 15), ("tar", 2), ("gzip", 2)),
                app_runs=(AppRun("miniconda", "py310", ranks=1, count=2),
                          AppRun("miniconda", "py311", ranks=1),
                          AppRun("miniconda", "solver", ranks=1),
                          AppRun("miniconda", "pip-tool", ranks=1),
                          AppRun("miniconda", "py310-update", ranks=1)),
            ),
        ),
    ),
    # user_5: small interactive Python 3.10 user.
    UserProfile(
        username="user_5", job_count=47,
        templates=(
            JobTemplate(
                name="python310-notebook", weight=0.6, uses_srun=False,
                system_calls=_sys(("bash", 1), ("uname", 1)),
                python_runs=(PythonRun("python3.10", "notebook-export",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "numpy", "pandas", "json",
                                        "datetime", "csv", "pickle", "bz2", "lzma", "zlib"),
                                       count=1),),
            ),
            JobTemplate(
                name="python310-mpi", weight=0.4, uses_srun=True,
                system_calls=_sys(("bash", 1), ("srun", 1)),
                python_runs=(PythonRun("python3.10", "mpi-study",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "mpi4py", "numpy", "scipy",
                                        "multiprocessing", "queue", "socket", "fcntl", "mmap",
                                        "array", "binascii", "bisect", "cmath", "ctypes",
                                        "decimal", "grp", "opcode", "random", "sha512",
                                        "unicodedata", "sha3"),
                                       count=1),),
            ),
        ),
    ),
    # user_10: the amber biomolecular-simulation user.
    UserProfile(
        username="user_10", job_count=28,
        templates=(
            JobTemplate(
                name="amber-md", weight=1.0,
                system_calls=_BATCH_PROLOGUE + _MODULE_LOAD + _sys(("srun", 2), ("mkdir", 40),
                                                                   ("rm", 40), ("cat", 20),
                                                                   ("ls", 6), ("cp", 4)),
                app_runs=(AppRun("amber", "hip", ranks=16), AppRun("amber", "hip-patch3", ranks=16)),
                extra_modules=("rocm", "cray-netcdf"),
            ),
        ),
    ),
    # user_9: tiny user who is the second LAMMPS user (a collaboration account).
    UserProfile(
        username="user_9", job_count=4,
        templates=(
            JobTemplate(
                name="lammps-collab", weight=1.0,
                system_calls=_sys(("bash", 1), ("srun", 1)),
                app_runs=(AppRun("LAMMPS", "gpu-2024", ranks=1),
                          AppRun("LAMMPS", "kokkos", ranks=1),
                          AppRun("LAMMPS", "cpu-only", ranks=1)),
                extra_modules=("rocm",),
            ),
        ),
    ),
    # user_3: alexandria.
    UserProfile(
        username="user_3", job_count=2,
        templates=(
            JobTemplate(
                name="alexandria-fit", weight=1.0, uses_srun=False, uses_module_loads=False,
                system_calls=_sys(("bash", 2), ("cat", 1)),
                app_runs=(AppRun("alexandria", "v1", ranks=2),),
            ),
        ),
    ),
    # user_6: RadRad, launched with no system-directory executables at all.
    UserProfile(
        username="user_6", job_count=2,
        templates=(
            JobTemplate(
                name="radrad-direct", weight=1.0, uses_srun=False, uses_module_loads=False,
                system_calls=(),
                app_runs=(AppRun("RadRad", "cpu", ranks=1), AppRun("RadRad", "gpu", ranks=1)),
            ),
        ),
    ),
    # user_7: one job with a user-installed gzip.
    UserProfile(
        username="user_7", job_count=1,
        templates=(
            JobTemplate(
                name="compress-results", weight=1.0, uses_srun=False, uses_module_loads=False,
                system_calls=_sys(("bash", 4), ("ls", 4), ("cat", 4), ("tar", 2), ("rm", 2),
                                  ("uname", 1)),
                app_runs=(AppRun("gzip", "user-build", ranks=1),),
            ),
        ),
    ),
    # user_12: one Python 3.10 job.
    UserProfile(
        username="user_12", job_count=1,
        templates=(
            JobTemplate(
                name="single-script", weight=1.0, uses_srun=False, uses_module_loads=False,
                system_calls=_sys(("bash", 2),),
                python_runs=(PythonRun("python3.10", "one-off-analysis",
                                       ("heapq", "struct", "math", "posixsubprocess", "select",
                                        "blake2", "hashlib", "numpy", "json"),
                                       count=1),),
            ),
        ),
    ),
)

PROFILES_BY_NAME: dict[str, UserProfile] = {
    profile.username: profile for profile in DEFAULT_PROFILES
}

#: Which packages each user has installed in their directories (derived from templates).
def packages_used_by(profile: UserProfile) -> list[str]:
    """Distinct package names appearing in a profile's templates."""
    seen: dict[str, None] = {}
    for template in profile.templates:
        for run in template.app_runs:
            seen.setdefault(run.package, None)
    return list(seen)


#: Bash-variant environment quirks: users whose login environment prepends an
#: alternative ncurses, producing the Table 4 libtinfo/libm variants of bash.
BASH_ENVIRONMENT_QUIRKS: dict[str, str] = {
    "user_2": "libtinfo-spack",
    "user_10": "libtinfo-sw",
}
