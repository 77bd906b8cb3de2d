"""The cluster facade: filesystem + users + modules + linker + scheduler.

:class:`Cluster` wires the individual simulator pieces together and exposes
the two operations the rest of the reproduction needs:

* ``register_preload_hook`` -- install the SIREN collector (or any other
  pre-load library) so it runs inside every hooked process, and
* ``run_job`` -- execute a :class:`~repro.hpcsim.slurm.JobScript` on behalf of
  a user: load the requested modules, build the per-process Slurm environment,
  and launch every process of every step through the
  :class:`~repro.hpcsim.process.ProcessRuntime`.

The cluster is deliberately memory-frugal: process contexts are not retained
after their hooks have run (a campaign can simulate hundreds of thousands of
processes), only aggregate counters and the Slurm accounting records remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hpcsim.dynlinker import DynamicLinker
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.modules import ModuleSystem
from repro.hpcsim.process import PreloadHook, ProcessRuntime
from repro.hpcsim.slurm import JobScript, SlurmJob, SlurmScheduler
from repro.hpcsim.users import User, UserRegistry
from repro.util.errors import SimulationError


@dataclass
class Cluster:
    """A simulated HPC system (the LUMI stand-in)."""

    name: str = "lumi-sim"
    filesystem: VirtualFilesystem = field(default_factory=VirtualFilesystem)
    users: UserRegistry = field(default_factory=UserRegistry)
    modules: ModuleSystem = field(default_factory=ModuleSystem)
    scheduler: SlurmScheduler = field(default_factory=SlurmScheduler)
    linker: DynamicLinker = field(init=False)
    runtime: ProcessRuntime = field(init=False)
    processes_run: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.linker = DynamicLinker(self.filesystem)
        self.runtime = ProcessRuntime(self.filesystem, self.linker)

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def add_user(self, username: str, *, project: str | None = None) -> User:
        """Create a user account (idempotent)."""
        return self.users.add(username, project=project)

    def register_preload_hook(self, hook: PreloadHook) -> None:
        """Install a pre-load hook; its ``library_path`` must exist on the filesystem."""
        if not self.filesystem.exists(hook.library_path):
            raise SimulationError(
                f"hook library {hook.library_path} is not present on the filesystem"
            )
        self.runtime.register_hook(hook)

    def base_environment(self, user: User) -> dict[str, str]:
        """The login environment of a user before any module loads."""
        return {
            "HOME": user.home,
            "USER": user.username,
            "PATH": "/usr/bin:/bin",
            "LOADEDMODULES": "",
        }

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #
    def run_job(self, username: str, script: JobScript) -> SlurmJob:
        """Execute a job script for ``username``; returns its Slurm
        accounting record."""
        user = self.users.get(username)
        job = self.scheduler.allocate_job(user.username, script.name, self.filesystem.clock)

        environment = self.base_environment(user)
        for key, value in script.environment:
            environment[key] = value
        if script.modules:
            environment = self.modules.load(list(script.modules), environment)

        total_processes = 0
        for step_id, step in enumerate(script.steps):
            for spec in step.processes:
                for _repeat in range(spec.count):
                    parent_pid = self.runtime.allocate_pid()
                    for rank in range(spec.ranks):
                        env = self.scheduler.process_environment(job, step_id, rank, environment)
                        self.runtime.run_process(
                            executable=spec.executable,
                            argv=spec.argv or (spec.executable,),
                            environment=env,
                            uid=user.uid,
                            gid=user.gid,
                            hostname=job.node,
                            ppid=parent_pid,
                            duration=spec.duration,
                            python_script=spec.python_script,
                            imported_packages=spec.imported_packages,
                            mapped_files=spec.mapped_files,
                        )
                        total_processes += 1
            # Each step advances the clock a little so timestamps differ.
            self.filesystem.advance_clock(1)

        job.step_count = len(script.steps)
        job.process_count = total_processes
        job.end_time = self.filesystem.clock
        self.processes_run += total_processes
        return job
