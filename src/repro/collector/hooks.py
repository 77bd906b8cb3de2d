"""The ``siren.so`` constructor/destructor logic.

:class:`SirenCollector` implements the :class:`~repro.hpcsim.process.PreloadHook`
protocol.  When the simulated dynamic linker injects the SIREN library into a
process (because the ``siren`` module put it on ``LD_PRELOAD``), the process
runtime calls :meth:`on_process_start` at process start -- the equivalent of
the library constructor -- and :meth:`on_process_end` at termination.

The constructor classifies the process, applies the Table 1 policy, gathers
the requested information as ``(layer, type, content)`` sections and hands
them with the process's wire header -- built once per hook call -- to the
fire-and-forget sender: one message per information type, chunked where
necessary.  Every optional section is individually guarded: a failure to
parse the executable, hash the script or frame a content only loses that
section, never the rest, and never the user process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector.classify import (
    classify_process,
    extract_script_path,
    is_python_interpreter,
)
from repro.collector.fuzzy import ArtifactHasher
from repro.collector.policy import DEFAULT_POLICY, CollectionPolicy
from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.elf.reader import ELFFile, is_elf
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.process import ProcessContext
from repro.transport.messages import Section, wire_header
from repro.transport.sender import UDPSender


@dataclass
class SirenCollector:
    """Process-level data collection injected via ``LD_PRELOAD``."""

    filesystem: VirtualFilesystem
    sender: UDPSender
    library_path: str
    policy: CollectionPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    hasher: ArtifactHasher = field(init=False)
    processes_collected: int = 0
    processes_skipped: int = 0
    section_errors: int = 0

    def __post_init__(self) -> None:
        self.hasher = ArtifactHasher(self.filesystem)

    # ------------------------------------------------------------------ #
    # constructor
    # ------------------------------------------------------------------ #
    def on_process_start(self, context: ProcessContext) -> None:
        """Collect and send all policy-selected information for this process."""
        if not self.policy.should_collect_rank(context.slurm_procid):
            self.processes_skipped += 1
            return
        category = classify_process(context.executable, context.argv)
        scope = self.policy.for_category(category)
        sections: list[Section] = [(Layer.SELF, InfoType.PROCINFO, format_keyvalues({
            "pid": context.pid, "ppid": context.ppid, "uid": context.uid,
            "gid": context.gid, "exe": context.executable, "category": category.value,
        }))]

        if scope.file_metadata:
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.FILEMETA, self._file_metadata(context.executable)))
        if scope.libraries:
            objects = "\n".join(context.loaded_objects)
            sections.append((Layer.SELF, InfoType.OBJECTS, objects))
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.OBJECTS_H, self.hasher.list_hash(objects)))
        if scope.modules:
            modules = context.loaded_modules
            sections.append((Layer.SELF, InfoType.MODULES, modules))
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.MODULES_H, self.hasher.list_hash(modules)))
        if scope.compilers:
            self._guard(sections, lambda: self._compiler_sections(context))
        if scope.memory_map:
            maps_text = context.maps_text()
            sections.append((Layer.SELF, InfoType.MAPS, maps_text))
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.MAPS_H, self.hasher.list_hash(maps_text)))
        if scope.file_hash or scope.strings_hash or scope.symbols_hash:
            self._guard(sections, lambda: self._executable_hash_sections(context, scope))

        # Python input script (the SCRIPT layer) --------------------------- #
        if is_python_interpreter(context.executable):
            self._guard(sections, lambda: self._script_sections(context))

        self.sender.send(self._wire_header(context), sections)
        self.processes_collected += 1

    # ------------------------------------------------------------------ #
    # destructor
    # ------------------------------------------------------------------ #
    def on_process_end(self, context: ProcessContext) -> None:
        """Send the destructor record (end timestamp, exit code)."""
        if not self.policy.should_collect_rank(context.slurm_procid):
            return
        self.sender.send(self._wire_header(context), [
            (Layer.SELF, InfoType.PROCEND, format_keyvalues({
                "end_time": context.end_time, "exit_code": context.exit_code,
            }))])

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _wire_header(self, context: ProcessContext) -> bytes:
        """The header every datagram of this process carries, both layers."""
        return wire_header(context.slurm_job_id, context.slurm_step_id, context.pid,
                           self.hasher.path_hash(context.executable),
                           context.hostname, context.start_time)

    def _guard(self, sections: list[Section], producer) -> None:
        """Run one collection section; on failure count it and move on."""
        try:
            result = producer()
        except Exception:  # noqa: BLE001 - graceful degradation by design
            self.section_errors += 1
            return
        if isinstance(result, list):
            sections.extend(result)
        else:
            sections.append(result)

    def _file_metadata(self, path: str) -> str:
        metadata = self.filesystem.stat(path)
        return format_keyvalues(metadata.as_dict())

    def _compiler_sections(self, context: ProcessContext) -> list[Section]:
        content = self.filesystem.read(context.executable)
        if not is_elf(content):
            return []
        comments = ";".join(ELFFile(content).comment_strings())
        return [
            (Layer.SELF, InfoType.COMPILERS, comments),
            (Layer.SELF, InfoType.COMPILERS_H, self.hasher.list_hash(comments)),
        ]

    def _executable_hash_sections(self, context: ProcessContext, scope) -> list[Section]:
        hashes = self.hasher.executable_hashes(context.executable)
        sections: list[Section] = []
        if scope.file_hash:
            sections.append((Layer.SELF, InfoType.FILE_H, hashes.file_hash))
        if scope.strings_hash:
            sections.append((Layer.SELF, InfoType.STRINGS_H, hashes.strings_hash))
        if scope.symbols_hash:
            if hashes.symbols_hash is None:
                # An unparseable symbol table loses SYMBOLS_H alone.
                self.section_errors += 1
            else:
                sections.append((Layer.SELF, InfoType.SYMBOLS_H, hashes.symbols_hash))
        return sections

    def _script_sections(self, context: ProcessContext) -> list[Section]:
        script = context.python_script or extract_script_path(context.argv)
        # A relative argv word (``app -input run.in``) names no file this
        # hook can open: no script, not a failed section.
        if not script or not script.startswith("/") or not self.filesystem.exists(script):
            return []
        scope = self.policy.python_script
        sections: list[Section] = [
            (Layer.SCRIPT, InfoType.PROCINFO, format_keyvalues({"script": script}))]
        if scope.file_metadata:
            sections.append((Layer.SCRIPT, InfoType.FILEMETA, self._file_metadata(script)))
        if scope.file_hash:
            sections.append((Layer.SCRIPT, InfoType.FILE_H,
                             self.hasher.script_hash(script)))
        return sections
