"""Materialise the synthetic corpus inside a virtual filesystem.

The :class:`CorpusBuilder` turns the declarative specifications of this
subpackage (libraries, system tools, packages, Python environments) into
actual ELF images and script files inside a :class:`~repro.hpcsim.cluster.Cluster`,
registers the environment modules that make the non-default library stacks
reachable, and returns a :class:`CorpusManifest` describing everything it
installed -- which is what the workload generator uses to compose job scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.libraries import LIBRARY_BY_KEY, LIBRARY_CATALOG, LibrarySpec
from repro.corpus.packages import PackageSpec, VariantSpec
from repro.corpus.python_env import PYTHON_INTERPRETERS, PYTHON_PACKAGES, PythonInterpreterSpec
from repro.corpus.system_tools import SYSTEM_TOOLS, SystemToolSpec
from repro.corpus.toolchains import comments_for
from repro.elf.builder import ELFBuilder
from repro.elf.constants import ET_DYN, ET_EXEC
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.modules import Module
from repro.hpcsim.users import User
from repro.util.errors import CorpusError
from repro.util.rng import SeededRNG

#: Path of the SIREN data-collection library on the simulated system.
SIREN_LIBRARY_PATH = "/appl/local/siren/lib/siren.so"

#: Decorative environment modules (names only); used to compose realistic
#: ``LOADEDMODULES`` values per package.
ENVIRONMENT_MODULES: tuple[tuple[str, str], ...] = (
    ("init-lumi", "0.2"), ("craype", "2.7.30"), ("cce", "17.0.1"),
    ("PrgEnv-cray", "8.5.0"), ("cray-mpich", "8.1.29"), ("cray-libsci", "23.12.5"),
    ("cray-hdf5", "1.12.2"), ("cray-netcdf", "4.9.0"), ("cray-fftw", "3.3.10"),
    ("rocm", "6.0.3"), ("cray-python", "3.10.10"), ("lumi-tools", "24.05"),
    ("buildtools", "24.03"), ("partition-gpu", "8.5.0"),
)


@dataclass(frozen=True)
class InstalledExecutable:
    """One executable the corpus installed in a user (or shared) directory."""

    path: str
    package: str
    variant_id: str
    version: str
    owner: str                    #: username owning the install ("" for shared installs)
    compilers: tuple[str, ...]
    library_keys: tuple[str, ...]
    required_modules: tuple[str, ...]
    size: int

    @property
    def filename(self) -> str:
        """Base name of the executable."""
        return self.path.rsplit("/", 1)[-1]


@dataclass
class CorpusManifest:
    """Everything the builder installed, indexed for the workload generator."""

    siren_library: str = SIREN_LIBRARY_PATH
    siren_module: str = "siren"
    system_tools: dict[str, str] = field(default_factory=dict)
    python_interpreters: dict[str, str] = field(default_factory=dict)
    library_paths: dict[str, str] = field(default_factory=dict)
    executables: list[InstalledExecutable] = field(default_factory=list)
    stack_modules: dict[str, str] = field(default_factory=dict)

    def tool(self, name: str) -> str:
        """Path of a system tool."""
        try:
            return self.system_tools[name]
        except KeyError as exc:
            raise CorpusError(f"system tool not installed: {name}") from exc

    def interpreter(self, name: str) -> str:
        """Path of a Python interpreter."""
        try:
            return self.python_interpreters[name]
        except KeyError as exc:
            raise CorpusError(f"python interpreter not installed: {name}") from exc

    def executables_for(self, package: str, owner: str | None = None) -> list[InstalledExecutable]:
        """Installed executables of a package (optionally restricted to one owner)."""
        return [
            exe for exe in self.executables
            if exe.package == package and (owner is None or exe.owner in ("", owner))
        ]

    def find_executable(self, package: str, variant_id: str,
                        owner: str | None = None) -> InstalledExecutable:
        """Find a specific installed variant."""
        for exe in self.executables_for(package, owner):
            if exe.variant_id == variant_id:
                return exe
        raise CorpusError(f"no installed executable for {package}/{variant_id}")


@dataclass
class CorpusBuilder:
    """Builds the corpus into a cluster's virtual filesystem."""

    cluster: Cluster
    rng: SeededRNG = field(default_factory=lambda: SeededRNG(2024))
    manifest: CorpusManifest = field(default_factory=CorpusManifest)
    _variant_images: dict[tuple[str, str], bytes] = field(init=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    # top-level orchestration
    # ------------------------------------------------------------------ #
    def install_base_system(self) -> CorpusManifest:
        """Install libraries, system tools, Python environments and siren.so."""
        self._install_libraries()
        self._install_system_tools()
        self._install_python()
        self._install_siren()
        self._register_environment_modules()
        return self.manifest

    # ------------------------------------------------------------------ #
    # shared libraries
    # ------------------------------------------------------------------ #
    def _install_libraries(self) -> None:
        filesystem = self.cluster.filesystem
        default_dirs: list[str] = list(self.cluster.linker.default_paths)
        for spec in LIBRARY_CATALOG:
            image = self._build_library_image(spec)
            filesystem.add_file(spec.path, image, executable=True, mode=0o755)
            self.manifest.library_paths[spec.key] = spec.path
            if spec.in_default_path and spec.directory not in default_dirs:
                default_dirs.append(spec.directory)
            if not spec.in_default_path:
                module = Module(name=spec.key, version="corpus",
                                library_paths=(spec.directory,))
                self.cluster.modules.register(module)
                self.manifest.stack_modules[spec.key] = module.full_name
            filesystem.advance_clock(7)
        # Cray PE / ROCm directories are in ld.so.conf on the real system, so
        # they become part of the default search path here as well.
        self.cluster.linker.default_paths = tuple(default_dirs)
        self.cluster.linker.clear_cache()

    def _build_library_image(self, spec: LibrarySpec) -> bytes:
        builder = ELFBuilder(file_type=ET_DYN, soname=spec.soname)
        builder.set_text_from_source(f"shared library {spec.key}\nsoname {spec.soname}",
                                     size=max(512, spec.size), seed=11)
        builder.add_needed_many(list(spec.needed))
        builder.add_strings([spec.soname, f"{spec.key} synthetic shared object"])
        builder.add_global_functions([
            f"{spec.key.replace('-', '_').replace('+', 'x')}_entry_{index}" for index in range(4)
        ])
        builder.add_comment("GCC: (SUSE Linux) 12.3.0")
        return builder.build()

    # ------------------------------------------------------------------ #
    # system tools
    # ------------------------------------------------------------------ #
    def _install_system_tools(self) -> None:
        filesystem = self.cluster.filesystem
        for tool in SYSTEM_TOOLS:
            image = self._build_tool_image(tool)
            path = f"{tool.directory}/{tool.name}"
            filesystem.add_file(path, image, executable=True, mode=0o755)
            self.manifest.system_tools[tool.name] = path
            filesystem.advance_clock(3)

    def _build_tool_image(self, tool: SystemToolSpec) -> bytes:
        builder = ELFBuilder(file_type=ET_EXEC)
        builder.set_text_from_source(f"system tool {tool.name}", size=tool.text_size, seed=5)
        builder.add_strings([tool.name, *tool.strings])
        builder.add_global_functions(["main", f"{tool.name}_usage", f"{tool.name}_main_loop"])
        builder.add_comment("GCC: (SUSE Linux) 7.5.0")
        if not tool.static:
            builder.add_needed_many(
                [LIBRARY_BY_KEY[key].soname for key in tool.library_keys]
            )
        return builder.build()

    # ------------------------------------------------------------------ #
    # python environments
    # ------------------------------------------------------------------ #
    def _install_python(self) -> None:
        filesystem = self.cluster.filesystem
        for interpreter in PYTHON_INTERPRETERS:
            image = self._build_interpreter_image(interpreter)
            filesystem.add_file(interpreter.path, image, executable=True, mode=0o755)
            self.manifest.python_interpreters[interpreter.name] = interpreter.path
            for package in PYTHON_PACKAGES:
                extension = package.extension_path(interpreter)
                payload = self._build_extension_image(package.name, interpreter.name)
                filesystem.add_file(extension, payload, mode=0o644)
            filesystem.advance_clock(5)

    def _build_interpreter_image(self, interpreter: PythonInterpreterSpec) -> bytes:
        builder = ELFBuilder(file_type=ET_EXEC)
        builder.set_text_from_source(f"python interpreter {interpreter.version}",
                                     size=interpreter.text_size, seed=9)
        builder.add_strings([f"Python {interpreter.version}", "Fatal Python error:",
                             "PYTHONPATH", "sys.path"])
        builder.add_global_functions(["Py_Main", "Py_Initialize", "PyRun_SimpleFile",
                                      "PyEval_EvalCode"])
        builder.add_comment("GCC: (SUSE Linux) 12.3.0")
        builder.add_needed_many(
            [LIBRARY_BY_KEY[key].soname for key in interpreter.library_keys]
        )
        return builder.build()

    def _build_extension_image(self, package: str, interpreter: str) -> bytes:
        builder = ELFBuilder(file_type=ET_DYN, soname=f"{package}.so")
        builder.set_text(self.rng.fork("pyext", package, interpreter).bytes(256))
        builder.add_strings([f"python extension {package}"])
        builder.add_global_functions([f"PyInit__{package}"])
        return builder.build()

    # ------------------------------------------------------------------ #
    # the SIREN collection library
    # ------------------------------------------------------------------ #
    def _install_siren(self) -> None:
        builder = ELFBuilder(file_type=ET_DYN, soname="siren.so")
        builder.set_text_from_source("siren data collection library", size=2048, seed=13)
        builder.add_strings(["siren.so", "SIREN data collection", "UDP sender"])
        builder.add_global_functions(["siren_constructor", "siren_destructor",
                                      "siren_collect", "siren_send_udp"])
        builder.add_comment("GCC: (SUSE Linux) 12.3.0")
        self.cluster.filesystem.add_file(SIREN_LIBRARY_PATH, builder.build(),
                                         executable=True, mode=0o755)
        self.cluster.modules.register(Module(
            name="siren", version="0.1",
            library_paths=("/appl/local/siren/lib",),
            ld_preload=(SIREN_LIBRARY_PATH,),
        ))
        self.manifest.siren_library = SIREN_LIBRARY_PATH

    # ------------------------------------------------------------------ #
    # decorative environment modules
    # ------------------------------------------------------------------ #
    def _register_environment_modules(self) -> None:
        for name, version in ENVIRONMENT_MODULES:
            self.cluster.modules.register(Module(name=name, version=version))

    # ------------------------------------------------------------------ #
    # scientific packages
    # ------------------------------------------------------------------ #
    def install_package(self, package: PackageSpec, user: User) -> list[InstalledExecutable]:
        """Install every variant of ``package`` for ``user`` and return the records."""
        return [self.install_variant(package, variant, user) for variant in package.variants]

    def install_variant(
        self, package: PackageSpec, variant: VariantSpec, user: User,
    ) -> InstalledExecutable:
        """Install one package variant for one user (shared installs ignore the user)."""
        path = self._variant_path(package, variant, user)
        for existing in self.manifest.executables:
            if existing.path == path:
                return existing
        image = self._variant_image(package, variant, user)
        shared = "{user}" not in package.install_root
        owner = "" if shared else user.username
        self.cluster.filesystem.add_file(
            path, image, executable=True, mode=0o750,
            uid=0 if shared else user.uid, gid=0 if shared else user.gid,
        )
        self.cluster.filesystem.advance_clock(60)
        self.cluster.linker.clear_cache()

        keys = variant.library_keys(package.base_library_keys)
        required_modules = tuple(sorted(
            key for key in keys if not LIBRARY_BY_KEY[key].in_default_path
        ))
        record = InstalledExecutable(
            path=path,
            package=package.name,
            variant_id=variant.variant_id,
            version=variant.version,
            owner=owner,
            compilers=variant.compilers,
            library_keys=keys,
            required_modules=required_modules,
            size=len(image),
        )
        self.manifest.executables.append(record)
        return record

    def _variant_path(self, package: PackageSpec, variant: VariantSpec, user: User) -> str:
        root = package.install_root.format(project=user.project, user=user.username)
        filename = variant.filename or package.executable_stem
        subdir = variant.subdir.format(project=user.project, user=user.username) \
            if variant.subdir else ""
        if subdir.startswith("/"):
            return f"{subdir}/{filename}"
        if subdir:
            return f"{root}/{subdir}/{filename}"
        return f"{root}/bin-{variant.variant_id}/{filename}"

    def _variant_image(self, package: PackageSpec, variant: VariantSpec, user: User) -> bytes:
        cache_key = (package.name, variant.variant_id)
        if cache_key in self._variant_images:
            return self._variant_images[cache_key]
        if variant.copy_of is not None:
            source_variant = package.variant(variant.copy_of)
            image = self._variant_image(package, source_variant, user)
            self._variant_images[cache_key] = image
            return image

        keys = variant.library_keys(package.base_library_keys)
        sonames = [LIBRARY_BY_KEY[key].soname for key in keys]

        builder = ELFBuilder(file_type=ET_EXEC)
        builder.set_text_from_source(
            self._variant_source(package, variant), size=variant.text_size, seed=0,
        )
        strings = [template.replace("%s", variant.version) if "%s" in template else template
                   for template in package.strings]
        strings.append(f"{package.name} release {variant.version}")
        strings.extend(sorted(set(sonames)))
        builder.add_strings(strings)
        builder.add_global_functions(list(package.public_functions))
        builder.add_global_objects(list(package.public_objects))
        # Major feature revisions add a small number of new public symbols;
        # minor patches leave the public interface untouched (the property the
        # paper exploits when arguing symbol hashes are the most stable).
        for feature in range(variant.patch_level // 4):
            builder.add_symbol(f"{package.executable_stem}_feature_{feature}")
        builder.add_local_symbols([f"{package.executable_stem}_static_helper_{index}"
                                   for index in range(4)])
        for comment in comments_for(list(variant.compilers)):
            builder.add_comment(comment)
        builder.add_needed_many(sorted(set(sonames)))
        image = builder.build()
        self._variant_images[cache_key] = image
        return image

    @staticmethod
    def _variant_source(package: PackageSpec, variant: VariantSpec) -> str:
        """Synthetic 'source code' whose patch level drives binary similarity."""
        lines = [
            f"{package.name} translation unit {index}: routine {package.executable_stem}_{index % 9}"
            for index in range(package.source_lines)
        ]
        for patch in range(variant.patch_level):
            position = (patch * 11 + 5) % len(lines)
            lines[position] = (
                f"{package.name} translation unit {position}: patched revision {patch} "
                f"({variant.version})"
            )
        return "\n".join(lines)
