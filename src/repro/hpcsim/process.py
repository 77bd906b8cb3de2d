"""Processes and the pre-load hook runtime.

A :class:`ProcessContext` is the simulator's stand-in for everything a hooked
``siren.so`` constructor can observe from inside a real process: PIDs, UID/GID,
the executable path (``/proc/self/exe``), the environment (Slurm variables,
``LOADEDMODULES``, ``LD_PRELOAD``), the loaded shared objects
(``dl_iterate_phdr``), and the memory map (``/proc/self/maps``).

The :class:`ProcessRuntime` "runs" processes: it resolves the executable
through the dynamic linker, constructs the context, and invokes any registered
pre-load hooks at process start (constructor) and process end (destructor) --
but only when the hook's library was actually injected via ``LD_PRELOAD`` and
the executable is dynamically linked, mirroring the real mechanism and its
stated limitation for static binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.hpcsim.dynlinker import DynamicLinker, LinkResult
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.memmap import MemoryRegion, build_memory_map, render_memory_map
from repro.util.errors import SimulationError


@dataclass
class ProcessContext:
    """Everything observable from inside one process."""

    pid: int
    ppid: int
    uid: int
    gid: int
    executable: str
    argv: tuple[str, ...]
    environment: dict[str, str]
    hostname: str
    start_time: int
    end_time: int = 0
    link_result: LinkResult | None = None
    memory_map: list[MemoryRegion] = field(default_factory=list)
    python_script: str | None = None
    imported_packages: tuple[str, ...] = ()
    exit_code: int = 0

    # -- convenience accessors (the values SIREN reads) ------------------- #
    @property
    def loaded_objects(self) -> tuple[str, ...]:
        """Paths of the shared objects loaded into the process."""
        return self.link_result.loaded_objects if self.link_result else ()

    @property
    def slurm_job_id(self) -> str:
        """Value of ``SLURM_JOB_ID`` (empty outside a job)."""
        return self.environment.get("SLURM_JOB_ID", "")

    @property
    def slurm_step_id(self) -> str:
        """Value of ``SLURM_STEP_ID``."""
        return self.environment.get("SLURM_STEP_ID", "")

    @property
    def slurm_procid(self) -> str:
        """Value of ``SLURM_PROCID`` (the MPI rank)."""
        return self.environment.get("SLURM_PROCID", "")

    @property
    def loaded_modules(self) -> str:
        """Value of ``LOADEDMODULES``."""
        return self.environment.get("LOADEDMODULES", "")

    def maps_text(self) -> str:
        """The rendered ``/proc/self/maps`` content."""
        return render_memory_map(self.memory_map)


class PreloadHook(Protocol):
    """Interface of an ``LD_PRELOAD``-injected library (constructor/destructor)."""

    #: Path of the shared object implementing the hook (e.g. ``.../siren.so``).
    library_path: str

    def on_process_start(self, context: ProcessContext) -> None:
        """Called at process start (the library constructor)."""

    def on_process_end(self, context: ProcessContext) -> None:
        """Called at process termination (the library destructor)."""


@dataclass
class ProcessRuntime:
    """Launches processes against a filesystem + linker and drives hooks."""

    filesystem: VirtualFilesystem
    linker: DynamicLinker
    _hooks: list[PreloadHook] = field(init=False, default_factory=list)
    _next_pid: int = field(init=False, default=1000)
    processes_launched: int = field(init=False, default=0)
    hook_failures: int = field(init=False, default=0)

    def register_hook(self, hook: PreloadHook) -> None:
        """Register a pre-load hook (at most once per library path)."""
        if any(existing.library_path == hook.library_path for existing in self._hooks):
            raise SimulationError(f"hook already registered for {hook.library_path}")
        self._hooks.append(hook)

    def unregister_hook(self, library_path: str) -> None:
        """Remove a previously registered hook."""
        self._hooks = [hook for hook in self._hooks if hook.library_path != library_path]

    def allocate_pid(self) -> int:
        """Allocate the next PID (monotonically increasing, wraps at 4 M)."""
        pid = self._next_pid
        self._next_pid += 1
        if self._next_pid > 4_194_304:  # PID namespace wrap, like the kernel's pid_max
            self._next_pid = 1000
        return pid

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_process(
        self,
        *,
        executable: str,
        argv: tuple[str, ...] | None = None,
        environment: dict[str, str],
        uid: int,
        gid: int,
        hostname: str,
        ppid: int = 1,
        pid: int | None = None,
        duration: int = 1,
        python_script: str | None = None,
        imported_packages: tuple[str, ...] = (),
        mapped_files: tuple[str, ...] = (),
    ) -> ProcessContext:
        """Execute one process and return its final context.

        Hook exceptions are swallowed (and counted) so that a buggy collector
        can never take down the "user" process -- SIREN's graceful-failure
        design goal.
        """
        if not self.filesystem.exists(executable):
            raise SimulationError(f"cannot execute missing file: {executable}")
        vfile = self.filesystem.get(executable)
        link = self.linker.link(executable, environment)

        loaded_meta: list[tuple[str, int, int]] = []
        for path in link.loaded_objects:
            meta = self.filesystem.stat(path)
            loaded_meta.append((path, meta.size, meta.inode))
        extra_meta: list[tuple[str, int, int]] = []
        for path in mapped_files:
            if self.filesystem.exists(path):
                meta = self.filesystem.stat(path)
                extra_meta.append((path, meta.size, meta.inode))

        start = self.filesystem.clock
        context = ProcessContext(
            pid=pid if pid is not None else self.allocate_pid(),
            ppid=ppid,
            uid=uid,
            gid=gid,
            executable=executable,
            argv=tuple(argv or (executable,)),
            environment=dict(environment),
            hostname=hostname,
            start_time=start,
            end_time=start + max(0, duration),
            link_result=link,
            memory_map=build_memory_map(
                executable, vfile.metadata.size, vfile.metadata.inode,
                loaded_meta, extra_meta,
            ),
            python_script=python_script,
            imported_packages=tuple(imported_packages),
        )
        self.filesystem.touch_atime(executable)
        self.processes_launched += 1

        for hook in self._active_hooks(link):
            try:
                hook.on_process_start(context)
            except Exception:  # noqa: BLE001 - graceful failure is the contract
                self.hook_failures += 1
        for hook in self._active_hooks(link):
            try:
                hook.on_process_end(context)
            except Exception:  # noqa: BLE001
                self.hook_failures += 1
        return context

    def _active_hooks(self, link: LinkResult) -> list[PreloadHook]:
        """Hooks whose library was actually injected into this process."""
        if link.static:
            return []
        preloaded = set(link.preloaded)
        return [hook for hook in self._hooks if hook.library_path in preloaded]
