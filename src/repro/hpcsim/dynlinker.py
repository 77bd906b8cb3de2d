"""Dynamic-linker simulation (``ld.so``).

The linker resolves an executable's ``DT_NEEDED`` sonames against an ordered
search path, recursively pulls in the dependencies of each shared object, and
honours ``LD_PRELOAD`` -- which is precisely the mechanism SIREN piggybacks on:
its collection library is injected by listing ``siren.so`` in ``LD_PRELOAD``,
so it is loaded into every *dynamically linked* process and its
constructor/destructor run at process start/exit.

Environment-dependent search paths are what produce the paper's Table 4
phenomenon: the same ``/usr/bin/bash`` loads a different ``libtinfo`` (and
sometimes an extra ``libm``) depending on which modules the user environment
has prepended to ``LD_LIBRARY_PATH``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf.reader import ELFFile, is_elf
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.util.errors import SimulationError

#: Default trusted directories searched after ``LD_LIBRARY_PATH``.
DEFAULT_SEARCH_PATH: tuple[str, ...] = ("/lib64", "/usr/lib64", "/usr/lib")


@dataclass(frozen=True)
class LinkResult:
    """Outcome of linking one executable in one environment."""

    executable: str
    loaded_objects: tuple[str, ...]
    preloaded: tuple[str, ...]
    missing: tuple[str, ...]
    static: bool = False

    @property
    def siren_loaded(self) -> bool:
        """True if the SIREN collection library ended up in the process image."""
        return any(path.endswith("siren.so") for path in self.preloaded)


@dataclass
class DynamicLinker:
    """Resolve shared-object dependencies for executables in a virtual filesystem."""

    filesystem: VirtualFilesystem
    default_paths: tuple[str, ...] = DEFAULT_SEARCH_PATH
    _needed_cache: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    _dynamic_cache: dict[tuple[str, int], bool] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # parsing helpers
    # ------------------------------------------------------------------ #
    def _needed_of(self, path: str) -> tuple[str, ...]:
        """``DT_NEEDED`` sonames of the ELF file at ``path`` (cached by mtime)."""
        vfile = self.filesystem.get(path)
        key = (path, vfile.metadata.mtime)
        cached = self._needed_cache.get(key)
        if cached is not None:
            return cached
        if not is_elf(vfile.content):
            needed: tuple[str, ...] = ()
        else:
            needed = tuple(ELFFile(vfile.content).needed_libraries())
        self._needed_cache[key] = needed
        return needed

    def is_dynamic(self, path: str) -> bool:
        """True if the executable at ``path`` is dynamically linked.

        Cached by ``(path, mtime)`` like the DT_NEEDED cache: re-parsing the
        ELF program headers for every process launch was one of the top
        serial costs the campaign profile surfaced.  The answer is pinned to
        the uncached ``ELFFile(...).is_dynamically_linked`` parse by
        ``tests/hpcsim/test_dynlinker.py``.
        """
        vfile = self.filesystem.get(path)
        key = (path, vfile.metadata.mtime)
        cached = self._dynamic_cache.get(key)
        if cached is not None:
            return cached
        content = vfile.content
        if not is_elf(content):
            # Scripts (shebang files) execute through an interpreter which is
            # itself dynamic; treat them as dynamic so hooks apply.
            dynamic = True
        else:
            dynamic = ELFFile(content).is_dynamically_linked
        self._dynamic_cache[key] = dynamic
        return dynamic

    # ------------------------------------------------------------------ #
    # search path handling
    # ------------------------------------------------------------------ #
    def search_directories(self, environment: dict[str, str]) -> list[str]:
        """Ordered library search directories for the given environment."""
        directories: list[str] = []
        ld_path = environment.get("LD_LIBRARY_PATH", "")
        for part in ld_path.split(":"):
            if part and part not in directories:
                directories.append(part.rstrip("/"))
        for part in self.default_paths:
            if part not in directories:
                directories.append(part.rstrip("/"))
        return directories

    def resolve_soname(self, soname: str, directories: list[str]) -> str | None:
        """Find the first directory containing ``soname``; return its full path."""
        for directory in directories:
            candidate = f"{directory}/{soname}"
            if self.filesystem.exists(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------ #
    # linking
    # ------------------------------------------------------------------ #
    def link(self, executable: str, environment: dict[str, str]) -> LinkResult:
        """Simulate ``ld.so`` for ``executable`` under ``environment``.

        Returns the ordered list of loaded shared objects (preloads first,
        then breadth-first over the dependency graph, each object once), the
        preloaded objects, and any sonames that could not be resolved.
        Statically linked executables produce an empty result with
        ``static=True`` -- SIREN cannot observe those.
        """
        if not self.is_dynamic(executable):
            return LinkResult(executable=executable, loaded_objects=(), preloaded=(),
                              missing=(), static=True)

        directories = self.search_directories(environment)
        loaded: list[str] = []
        missing: list[str] = []
        seen: set[str] = set()

        # LD_PRELOAD entries are absolute paths (or sonames searched like any
        # other library) loaded before anything else.
        preloaded: list[str] = []
        for entry in environment.get("LD_PRELOAD", "").split(":"):
            entry = entry.strip()
            if not entry:
                continue
            resolved = entry if self.filesystem.exists(entry) else \
                self.resolve_soname(entry, directories)
            if resolved is None:
                missing.append(entry)
                continue
            if resolved not in seen:
                seen.add(resolved)
                preloaded.append(resolved)
                loaded.append(resolved)

        # Breadth-first resolution of DT_NEEDED starting from the executable.
        queue: list[str] = [executable]
        visited_images: set[str] = set()
        while queue:
            image = queue.pop(0)
            if image in visited_images:
                continue
            visited_images.add(image)
            for soname in self._needed_of(image):
                resolved = self.resolve_soname(soname, directories)
                if resolved is None:
                    if soname not in missing:
                        missing.append(soname)
                    continue
                if resolved not in seen:
                    seen.add(resolved)
                    loaded.append(resolved)
                    queue.append(resolved)

        return LinkResult(
            executable=executable,
            loaded_objects=tuple(loaded),
            preloaded=tuple(preloaded),
            missing=tuple(missing),
            static=False,
        )

    def clear_cache(self) -> None:
        """Drop the mtime-keyed caches (used after rebuilding corpus files)."""
        self._needed_cache.clear()
        self._dynamic_cache.clear()


def ensure_library_present(filesystem: VirtualFilesystem, path: str) -> None:
    """Sanity helper for corpus builders: fail fast if a library file is missing."""
    if not filesystem.exists(path):
        raise SimulationError(f"expected shared library missing from filesystem: {path}")
