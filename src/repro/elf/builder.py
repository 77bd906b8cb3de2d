"""Construct synthetic ELF64 executables and shared objects.

The corpus builder (``repro.corpus``) uses :class:`ELFBuilder` to materialise
each software package variant as an ELF image with:

* a ``.text`` section whose bytes are derived deterministically from the
  package's "source code" description (so recompilations with small source
  changes change a small fraction of the bytes -- the property fuzzy hashing
  exploits),
* a ``.rodata`` section containing the package's printable strings (version
  banners, format strings, embedded paths),
* a ``.comment`` section with compiler identification strings, exactly the way
  GCC/Clang record themselves (one NUL-separated entry per producer),
* ``.dynstr`` + ``.dynamic`` with one ``DT_NEEDED`` entry per required shared
  object,
* ``.dynsym``/``.symtab`` with global function/object symbols (the "public
  interface" SIREN hashes as the symbol fuzzy hash),
* the usual string tables and a section-header string table.

The produced image is a real, parseable ELF file (readable by
:class:`repro.elf.reader.ELFFile` or external tools), but the ``.text``
payload is pseudo-random rather than actual machine code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.elf.constants import (
    DT_NEEDED,
    DT_NULL,
    DT_SONAME,
    DT_STRTAB,
    EHDR_SIZE,
    EM_X86_64,
    ET_DYN,
    ET_EXEC,
    PHDR_SIZE,
    PT_LOAD,
    SHDR_SIZE,
    SHF_ALLOC,
    SHF_EXECINSTR,
    SHF_STRINGS,
    SHN_UNDEF,
    SHT_DYNAMIC,
    SHT_DYNSYM,
    SHT_NULL,
    SHT_PROGBITS,
    SHT_STRTAB,
    SHT_SYMTAB,
    STB_GLOBAL,
    STB_LOCAL,
    STT_FUNC,
    STT_OBJECT,
)
from repro.elf.structures import (
    DynamicEntry,
    ELFHeader,
    ProgramHeader,
    SectionHeader,
    StringTable,
    Symbol,
)
from repro.hashing.xxhash import xxh64
from repro.util.errors import ELFError


@dataclass
class _PendingSection:
    name: str
    sh_type: int
    data: bytes
    flags: int = 0
    link: int = 0
    info: int = 0
    entsize: int = 0
    addralign: int = 8


@dataclass
class ELFBuilder:
    """Incrementally build an ELF64 little-endian image.

    Parameters
    ----------
    file_type:
        ``ET_EXEC`` for executables (default) or ``ET_DYN`` for shared objects.
    machine:
        ELF machine value; defaults to x86-64.
    soname:
        For shared objects, the ``DT_SONAME`` recorded in ``.dynamic``.
    """

    file_type: int = ET_EXEC
    machine: int = EM_X86_64
    soname: str = ""
    _text: bytes = b""
    _rodata_strings: list[str] = field(default_factory=list)
    _comments: list[str] = field(default_factory=list)
    _needed: list[str] = field(default_factory=list)
    _symbols: list[tuple[str, int, int, int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # content population
    # ------------------------------------------------------------------ #
    def set_text(self, code: bytes) -> "ELFBuilder":
        """Set the raw ``.text`` payload."""
        self._text = bytes(code)
        return self

    def set_text_from_source(self, source: str, size: int = 4096, *, seed: int = 0) -> "ELFBuilder":
        """Derive a deterministic ``.text`` payload of ``size`` bytes from ``source``.

        The payload is generated block-wise (256-byte blocks), each block keyed
        by the corresponding "source line", so editing one line of the source
        description only changes the corresponding blocks of the binary --
        mimicking how a recompilation after a small patch perturbs a small,
        localised portion of the machine code.
        """
        if size <= 0:
            raise ELFError("text size must be positive")
        lines = source.splitlines() or [source or "empty"]
        block_size = 256
        block_count = (size + block_size - 1) // block_size
        blocks: list[bytes] = []
        for index in range(block_count):
            line = lines[index % len(lines)]
            key = xxh64(f"{line}|{index}|{seed}".encode("utf-8"))
            rng = np.random.default_rng(key)
            blocks.append(rng.integers(0, 256, size=block_size, dtype=np.uint8).tobytes())
        self._text = b"".join(blocks)[:size]
        return self

    def add_strings(self, texts: list[str]) -> "ELFBuilder":
        """Add many printable strings to ``.rodata``."""
        self._rodata_strings.extend(texts)
        return self

    def add_comment(self, producer: str) -> "ELFBuilder":
        """Add one compiler identification string to ``.comment``.

        Real toolchains write entries such as ``GCC: (SUSE Linux) 12.3.0`` or
        ``clang version 17.0.1 (Cray PE)``; pass the full producer string.
        """
        self._comments.append(producer)
        return self

    def add_needed_many(self, libraries: list[str]) -> "ELFBuilder":
        """Declare several ``DT_NEEDED`` dependencies, preserving order."""
        self._needed.extend(libraries)
        return self

    def add_symbol(
        self,
        name: str,
        *,
        binding: int = STB_GLOBAL,
        symbol_type: int = STT_FUNC,
        size: int = 64,
    ) -> "ELFBuilder":
        """Add one symbol to both ``.symtab`` and ``.dynsym``."""
        self._symbols.append((name, binding, symbol_type, size))
        return self

    def add_global_functions(self, names: list[str]) -> "ELFBuilder":
        """Add a batch of global function symbols."""
        for name in names:
            self.add_symbol(name, binding=STB_GLOBAL, symbol_type=STT_FUNC)
        return self

    def add_global_objects(self, names: list[str]) -> "ELFBuilder":
        """Add a batch of global data-object symbols."""
        for name in names:
            self.add_symbol(name, binding=STB_GLOBAL, symbol_type=STT_OBJECT)
        return self

    def add_local_symbols(self, names: list[str]) -> "ELFBuilder":
        """Add local (``static``) symbols; these are *not* part of the public interface."""
        for name in names:
            self.add_symbol(name, binding=STB_LOCAL, symbol_type=STT_FUNC)
        return self

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def build(self) -> bytes:
        """Serialise the image and return its bytes."""
        shstrtab = StringTable()
        sections: list[_PendingSection] = []

        def add(section: _PendingSection) -> int:
            sections.append(section)
            return len(sections)  # +1 for the NULL section at index 0

        # .text --------------------------------------------------------- #
        text = self._text or b"\x90" * 16  # default: a tiny nop sled
        text_index = add(_PendingSection(
            ".text", SHT_PROGBITS, text, flags=SHF_ALLOC | SHF_EXECINSTR, addralign=16,
        ))

        # .rodata --------------------------------------------------------- #
        rodata = b"\x00".join(s.encode("utf-8") for s in self._rodata_strings) + b"\x00" \
            if self._rodata_strings else b"\x00"
        add(_PendingSection(".rodata", SHT_PROGBITS, rodata,
                            flags=SHF_ALLOC | SHF_STRINGS, addralign=1))

        # .comment -------------------------------------------------------- #
        comment = b"\x00".join(c.encode("utf-8") for c in self._comments) + b"\x00" \
            if self._comments else b""
        if comment:
            add(_PendingSection(".comment", SHT_PROGBITS, comment,
                                flags=SHF_STRINGS, addralign=1))

        # .dynstr / .dynamic ----------------------------------------------- #
        dynstr = StringTable()
        needed_offsets = [dynstr.add(lib) for lib in self._needed]
        soname_offset = dynstr.add(self.soname) if self.soname else None
        dynamic_needed = self._needed or self.soname
        if dynamic_needed:
            dynstr_index = add(_PendingSection(".dynstr", SHT_STRTAB, dynstr.pack(),
                                               flags=SHF_ALLOC, addralign=1))
            entries = [DynamicEntry(DT_NEEDED, off) for off in needed_offsets]
            if soname_offset is not None:
                entries.append(DynamicEntry(DT_SONAME, soname_offset))
            entries.append(DynamicEntry(DT_STRTAB, 0))
            entries.append(DynamicEntry(DT_NULL, 0))
            dynamic = b"".join(entry.pack() for entry in entries)
            add(_PendingSection(".dynamic", SHT_DYNAMIC, dynamic, flags=SHF_ALLOC,
                                link=dynstr_index, entsize=16))
        else:
            dynstr_index = 0

        # symbol tables ----------------------------------------------------- #
        if self._symbols:
            symstr = StringTable()
            symbols = [Symbol.create(0, STB_LOCAL, 0, 0, 0, SHN_UNDEF)]  # mandatory null symbol
            address = 0x401000
            for name, binding, symbol_type, size in self._symbols:
                offset = symstr.add(name)
                symbols.append(Symbol.create(offset, binding, symbol_type,
                                             address, size, text_index, name=name))
                address += max(16, size)
            symtab_data = b"".join(sym.pack() for sym in symbols)
            strtab_index = add(_PendingSection(".strtab", SHT_STRTAB, symstr.pack(), addralign=1))
            # sh_info for SYMTAB = index of first non-local symbol
            first_global = 1 + sum(
                1 for _, binding, _, _ in self._symbols if binding == STB_LOCAL
            )
            add(_PendingSection(".symtab", SHT_SYMTAB, symtab_data, link=strtab_index,
                                info=first_global, entsize=24))
            add(_PendingSection(".dynsym", SHT_DYNSYM, symtab_data, link=strtab_index,
                                info=first_global, entsize=24, flags=SHF_ALLOC))

        # .shstrtab (must be last so its own name is registered) ------------ #
        for section in sections:
            shstrtab.add(section.name)
        shstrtab.add(".shstrtab")
        shstrtab_pending = _PendingSection(".shstrtab", SHT_STRTAB, shstrtab.pack(), addralign=1)
        sections.append(shstrtab_pending)
        shstrndx = len(sections)  # index accounting for NULL section

        # ---- layout ------------------------------------------------------- #
        phnum = 1
        data_offset = EHDR_SIZE + phnum * PHDR_SIZE
        blobs: list[bytes] = []
        headers: list[SectionHeader] = [SectionHeader(sh_type=SHT_NULL)]
        for section in sections:
            padding = (-data_offset) % section.addralign
            if padding:
                blobs.append(b"\x00" * padding)
                data_offset += padding
            headers.append(SectionHeader(
                sh_name=shstrtab.add(section.name),
                sh_type=section.sh_type,
                sh_flags=section.flags,
                sh_addr=0x400000 + data_offset if section.flags & SHF_ALLOC else 0,
                sh_offset=data_offset,
                sh_size=len(section.data),
                sh_link=section.link,
                sh_info=section.info,
                sh_addralign=section.addralign,
                sh_entsize=section.entsize,
                name=section.name,
            ))
            blobs.append(section.data)
            data_offset += len(section.data)

        shoff = data_offset + ((-data_offset) % 8)
        section_pad = b"\x00" * (shoff - data_offset)

        header = ELFHeader(
            e_type=self.file_type,
            e_machine=self.machine,
            e_entry=0x401000 if self.file_type == ET_EXEC else 0,
            e_phoff=EHDR_SIZE,
            e_shoff=shoff,
            e_phentsize=PHDR_SIZE,
            e_phnum=phnum,
            e_shnum=len(headers),
            e_shstrndx=shstrndx,
        )
        total_size = shoff + len(headers) * SHDR_SIZE
        phdr = ProgramHeader(
            p_type=PT_LOAD, p_flags=5, p_offset=0, p_vaddr=0x400000, p_paddr=0x400000,
            p_filesz=total_size, p_memsz=total_size,
        )
        image = bytearray()
        image += header.pack()
        image += phdr.pack()
        for blob in blobs:
            image += blob
        image += section_pad
        for section_header in headers:
            image += section_header.pack()
        return bytes(image)
