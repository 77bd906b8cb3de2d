"""LMOD-style environment module system.

On LUMI the SIREN data-collection library is deployed as a Lua module whose
only job is to prepend ``siren.so`` to ``LD_PRELOAD``; users opt in by loading
the module in their job scripts.  Other modules (Cray programming environment,
compilers, scientific libraries) modify the dynamic-linker search path, which
is why the same system executable can show up with different sets of loaded
shared objects (Table 4 of the paper).

A :class:`Module` here captures exactly those effects: environment variables
to set, search paths to prepend, ``LD_PRELOAD`` entries to add, and dependent
modules that are loaded implicitly (the way ``PrgEnv-cray`` pulls in
``cce`` and ``cray-libsci``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import SimulationError


@dataclass(frozen=True)
class Module:
    """One environment module."""

    name: str
    version: str = "1.0"
    library_paths: tuple[str, ...] = ()
    ld_preload: tuple[str, ...] = ()
    env: tuple[tuple[str, str], ...] = ()
    requires: tuple[str, ...] = ()

    @property
    def full_name(self) -> str:
        """``name/version`` string as it appears in ``LOADEDMODULES``."""
        return f"{self.name}/{self.version}"


@dataclass
class ModuleSystem:
    """Registry plus loader for environment modules."""

    _modules: dict[str, Module] = field(init=False, default_factory=dict)

    def register(self, module: Module) -> Module:
        """Register a module under its bare name (last registration wins)."""
        self._modules[module.name] = module
        return module

    def get(self, name: str) -> Module:
        """Look up a module by bare name (``cray-hdf5``) or full name (``cray-hdf5/1.12``)."""
        bare = name.split("/", 1)[0]
        try:
            return self._modules[bare]
        except KeyError as exc:
            raise SimulationError(f"unknown module: {name}") from exc

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load(self, names: list[str], environment: dict[str, str] | None = None) -> dict[str, str]:
        """Load modules (and their dependencies) into an environment.

        Returns a *new* environment dictionary with ``LOADEDMODULES``,
        ``LD_LIBRARY_PATH`` and ``LD_PRELOAD`` updated, mirroring what
        ``module load`` does to a shell environment.
        """
        env = dict(environment or {})
        loaded: list[str] = [m for m in env.get("LOADEDMODULES", "").split(":") if m]
        ordered = self._resolve_order(names)

        for module in ordered:
            if module.full_name in loaded:
                continue
            loaded.append(module.full_name)
            for key, value in module.env:
                env[key] = value
            if module.library_paths:
                existing = env.get("LD_LIBRARY_PATH", "")
                parts = [p for p in module.library_paths if p]
                if existing:
                    parts.append(existing)
                env["LD_LIBRARY_PATH"] = ":".join(dict.fromkeys(":".join(parts).split(":")))
            if module.ld_preload:
                existing = env.get("LD_PRELOAD", "")
                parts = list(module.ld_preload)
                if existing:
                    parts.append(existing)
                env["LD_PRELOAD"] = ":".join(dict.fromkeys(":".join(parts).split(":")))

        env["LOADEDMODULES"] = ":".join(loaded)
        return env

    def _resolve_order(self, names: list[str]) -> list[Module]:
        """Topologically order the requested modules and their dependencies."""
        ordered: list[Module] = []
        seen: set[str] = set()

        def visit(name: str, stack: tuple[str, ...]) -> None:
            module = self.get(name)
            if module.name in stack:
                raise SimulationError(
                    f"module dependency cycle: {' -> '.join(stack + (module.name,))}"
                )
            if module.name in seen:
                return
            for requirement in module.requires:
                visit(requirement, stack + (module.name,))
            seen.add(module.name)
            ordered.append(module)

        for name in names:
            visit(name, ())
        return ordered
