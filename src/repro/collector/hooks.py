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
from typing import Any

from repro.collector.classify import (
    classify_executable,
    extract_script_path,
    is_python_interpreter,
)
from repro.collector.fuzzy import ArtifactHasher, ExecutableHashes, result_of
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
        """Collect and send every section Table 1 lists for this process.

        The collected lists are gathered first, so that one
        :meth:`~repro.collector.fuzzy.ArtifactHasher.start_hashes` call
        answers every digest the start needs -- each list's, the
        executable's three and the input script's -- and hashes whatever
        misses in one batch; the sections then go out in Table 1's order.
        """
        if not should_collect_rank(context.slurm_procid):
            self.processes_skipped += 1
            return
        path = context.executable
        category = classify_executable(path)
        sends = TABLE_1[category]
        sections: list[Section] = [(Layer.SELF, InfoType.PROCINFO, format_keyvalues({
            "pid": context.pid, "ppid": context.ppid, "uid": context.uid,
            "gid": context.gid, "exe": path, "category": category.value,
        }))]
        if InfoType.FILEMETA in sends:
            self._guard(sections, lambda: (
                Layer.SELF, InfoType.FILEMETA, self._file_metadata(path)))

        # One parse of the image serves its .comment strings and, on a hash
        # miss, its symbol table.
        image = (self._attempt(lambda: self._image(path))
                 if any(kind in sends for kind in _COMPILERS) else None)
        lists = self._collected_lists(context, sends, image)
        script = (self._attempt(lambda: self._script_path(context))
                  if is_python_interpreter(path) else None)
        hashes = self.hasher.start_hashes(
            [text for (_, hash_type), text in lists if hash_type in sends],
            None if _EXECUTABLE_HASHES.isdisjoint(sends) else path,
            script if InfoType.FILE_H in TABLE_1[Layer.SCRIPT] else None, image)

        digests = iter(hashes.lists)
        for (info_type, hash_type), text in lists:
            if info_type in sends:
                sections.append((Layer.SELF, info_type, text))
            if hash_type in sends:
                digest = next(digests)
                self._guard(sections, lambda: (Layer.SELF, hash_type, result_of(digest)))
        if hashes.executable is not None:
            self._guard(sections, lambda: self._executable_hash_sections(
                result_of(hashes.executable), sends))
        if script is not None:
            self._guard(sections, lambda: self._script_sections(script, hashes.script))

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

    def _attempt(self, producer: Callable[[], Any]) -> Any:
        """Run one collection step; on failure count it and return ``None``."""
        try:
            return producer()
        except Exception:  # noqa: BLE001 - graceful degradation by design
            self.section_errors += 1
            return None

    def _guard(self, sections: list[Section], producer) -> None:
        """Run one collection section; on failure count it and move on."""
        result = self._attempt(producer)
        if isinstance(result, list):
            sections.extend(result)
        elif result is not None:
            sections.append(result)

    def _collected_lists(self, context: ProcessContext, sends: tuple[InfoType, ...],
                         image: ELFFile | None
                         ) -> list[tuple[tuple[InfoType, InfoType], str]]:
        """Each collected list whose section or hash ``sends`` lists, with its text.

        The compiler list is the ``.comment`` strings of ``image``, the
        executable's parse: there is none for an image that is not ELF, and
        a lost section for one that cannot be read or parsed.
        """
        lists = []
        for pair, text in ((_OBJECTS, lambda: "\n".join(context.loaded_objects)),
                           (_MODULES, lambda: context.loaded_modules),
                           (_COMPILERS, lambda: None if image is None
                            else ";".join(image.comment_strings())),
                           (_MAPS, context.maps_text)):
            if pair[0] in sends or pair[1] in sends:
                content = self._attempt(text) if pair is _COMPILERS else text()
                if content is not None:
                    lists.append((pair, content))
        return lists

    def _file_metadata(self, path: str) -> str:
        metadata = self.filesystem.stat(path)
        return format_keyvalues(metadata.as_dict())

    def _image(self, path: str) -> ELFFile | None:
        """The executable parsed as ELF; ``None`` if it is not ELF."""
        content = self.filesystem.read(path)
        return ELFFile(content) if is_elf(content) else None

    def _executable_hash_sections(self, hashes: ExecutableHashes,
                                  sends: tuple[InfoType, ...]) -> list[Section]:
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

    def _script_path(self, context: ProcessContext) -> str | None:
        """The interpreter's input script, if it names a file this hook can open.

        A relative argv word (``app -input run.in``) names no file this hook
        can open: no script, not a failed section.
        """
        script = context.python_script or extract_script_path(context.argv)
        if not script or not script.startswith("/") or not self.filesystem.exists(script):
            return None
        return script

    def _script_sections(self, script: str, digest: str | Exception | None) -> list[Section]:
        """The SCRIPT layer; a script digest that failed loses the whole layer."""
        sends = TABLE_1[Layer.SCRIPT]
        sections: list[Section] = [
            (Layer.SCRIPT, InfoType.PROCINFO, format_keyvalues({"script": script}))]
        if InfoType.FILEMETA in sends:
            sections.append((Layer.SCRIPT, InfoType.FILEMETA, self._file_metadata(script)))
        if InfoType.FILE_H in sends:
            sections.append((Layer.SCRIPT, InfoType.FILE_H, result_of(digest)))
        return sections
