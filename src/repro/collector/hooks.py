"""The ``siren.so`` constructor/destructor logic.

:class:`SirenCollector` implements the :class:`~repro.hpcsim.process.PreloadHook`
protocol.  When the simulated dynamic linker injects the SIREN library into a
process (because the ``siren`` module put it on ``LD_PRELOAD``), the process
runtime calls :meth:`on_process_start` at process start -- the equivalent of
the library constructor -- and :meth:`on_process_end` at termination.

The constructor classifies the process, gathers the sections
:data:`~repro.collector.policy.TABLE_1` lists for its category as
``(layer, type, content)`` triples and hands them with the process's wire
header -- built once per hook call -- to the fire-and-forget sender: one
message per information type, chunked where necessary.  Every optional section is individually guarded: a failure to
parse the executable, hash the script or frame a content only loses that
section, never the rest, and never the user process.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.collector.classify import (
    classify_process,
    extract_script_path,
    is_python_interpreter,
)
from repro.collector.fuzzy import ArtifactHasher
from repro.collector.policy import TABLE_1, should_collect_rank
from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.elf.reader import ELFFile, is_elf
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.process import ProcessContext
from repro.transport.messages import Section, wire_header
from repro.transport.sender import UDPSender

#: Each collected list's section and its fuzzy hash's.  Bound once: reading
#: an enum member off its class costs more than the membership test itself.
_OBJECTS = InfoType.OBJECTS, InfoType.OBJECTS_H
_MODULES = InfoType.MODULES, InfoType.MODULES_H
_COMPILERS = InfoType.COMPILERS, InfoType.COMPILERS_H
_MAPS = InfoType.MAPS, InfoType.MAPS_H
#: The sections one parse of the executable yields (Table 1's ``_H`` rows).
_EXECUTABLE_HASHES = frozenset({InfoType.FILE_H, InfoType.STRINGS_H, InfoType.SYMBOLS_H})


@dataclass
class SirenCollector:
    """Process-level data collection injected via ``LD_PRELOAD``."""

    filesystem: VirtualFilesystem
    sender: UDPSender
    library_path: str
    hasher: ArtifactHasher = field(init=False)
    processes_collected: int = field(init=False, default=0)
    processes_skipped: int = field(init=False, default=0)
    section_errors: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.hasher = ArtifactHasher(self.filesystem)

    # ------------------------------------------------------------------ #
    # constructor
    # ------------------------------------------------------------------ #
    def on_process_start(self, context: ProcessContext) -> None:
        """Collect and send every section Table 1 lists for this process."""
        if not should_collect_rank(context.slurm_procid):
            self.processes_skipped += 1
            return
        category = classify_process(context.executable, context.argv)
        sends = TABLE_1[category]
        sections: list[Section] = [(Layer.SELF, InfoType.PROCINFO, format_keyvalues({
            "pid": context.pid, "ppid": context.ppid, "uid": context.uid,
            "gid": context.gid, "exe": context.executable, "category": category.value,
        }))]

        if InfoType.FILEMETA in sends:
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.FILEMETA, self._file_metadata(context.executable)))
        self._list_sections(sections, sends, _OBJECTS,
                            lambda: "\n".join(context.loaded_objects))
        self._list_sections(sections, sends, _MODULES, lambda: context.loaded_modules)
        if _COMPILERS[0] in sends or _COMPILERS[1] in sends:
            self._guard(sections, lambda: self._compiler_sections(context, sends))
        self._list_sections(sections, sends, _MAPS, context.maps_text)
        if not _EXECUTABLE_HASHES.isdisjoint(sends):
            self._guard(sections, lambda: self._executable_hash_sections(context, sends))

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
        if not should_collect_rank(context.slurm_procid):
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

    def _list_sections(self, sections: list[Section], sends: tuple[InfoType, ...],
                       pair: tuple[InfoType, InfoType], text: Callable[[], str]) -> None:
        """A collected list and its fuzzy hash, each where ``sends`` lists it."""
        info_type, hash_type = pair
        if info_type not in sends and hash_type not in sends:
            return
        content = text()
        if info_type in sends:
            sections.append((Layer.SELF, info_type, content))
        if hash_type in sends:
            self._guard(sections, lambda: (
                Layer.SELF, hash_type, self.hasher.list_hash(content)))

    def _file_metadata(self, path: str) -> str:
        metadata = self.filesystem.stat(path)
        return format_keyvalues(metadata.as_dict())

    def _compiler_sections(self, context: ProcessContext,
                           sends: tuple[InfoType, ...]) -> list[Section]:
        content = self.filesystem.read(context.executable)
        if not is_elf(content):
            return []
        comments = ";".join(ELFFile(content).comment_strings())
        sections: list[Section] = []
        if InfoType.COMPILERS in sends:
            sections.append((Layer.SELF, InfoType.COMPILERS, comments))
        if InfoType.COMPILERS_H in sends:
            sections.append((Layer.SELF, InfoType.COMPILERS_H, self.hasher.list_hash(comments)))
        return sections

    def _executable_hash_sections(self, context: ProcessContext,
                                  sends: tuple[InfoType, ...]) -> list[Section]:
        hashes = self.hasher.executable_hashes(context.executable)
        sections: list[Section] = []
        if InfoType.FILE_H in sends:
            sections.append((Layer.SELF, InfoType.FILE_H, hashes.file_hash))
        if InfoType.STRINGS_H in sends:
            sections.append((Layer.SELF, InfoType.STRINGS_H, hashes.strings_hash))
        if InfoType.SYMBOLS_H in sends:
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
        sends = TABLE_1[Layer.SCRIPT]
        sections: list[Section] = [
            (Layer.SCRIPT, InfoType.PROCINFO, format_keyvalues({"script": script}))]
        if InfoType.FILEMETA in sends:
            sections.append((Layer.SCRIPT, InfoType.FILEMETA, self._file_metadata(script)))
        if InfoType.FILE_H in sends:
            sections.append((Layer.SCRIPT, InfoType.FILE_H,
                             self.hasher.script_hash(script)))
        return sections
