"""Parse ELF64 little-endian images (the ``libelf`` stand-in).

:class:`ELFFile` exposes exactly the queries SIREN's collector performs:

* ``comment_strings()`` -- compiler identification strings from ``.comment``,
* ``global_symbols()`` -- externally visible symbols (the ``nm``-style public
  interface that SIREN fuzzy-hashes),
* ``needed_libraries()`` -- ``DT_NEEDED`` sonames from ``.dynamic``,
* ``is_dynamically_linked`` -- whether the LD_PRELOAD hook applies at all
  (statically linked binaries never invoke the dynamic linker, a stated
  limitation of SIREN).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.elf.constants import (
    DT_NEEDED,
    DT_NULL,
    DT_SONAME,
    DYN_SIZE,
    ELF_MAGIC,
    SHT_DYNAMIC,
    SHT_DYNSYM,
    SHT_SYMTAB,
    STB_GLOBAL,
    STB_WEAK,
    SYM_SIZE,
)
from repro.elf.structures import DynamicEntry, ELFHeader, SectionHeader, StringTable, Symbol
from repro.util.errors import ELFError


def is_elf(data: bytes) -> bool:
    """True if ``data`` starts with the ELF magic."""
    return len(data) >= 4 and data[:4] == ELF_MAGIC


@dataclass
class ELFFile:
    """A parsed ELF64LE image held fully in memory."""

    data: bytes

    def __post_init__(self) -> None:
        if not is_elf(self.data):
            raise ELFError("not an ELF image")
        self.header = ELFHeader.unpack(self.data)

    # ------------------------------------------------------------------ #
    # sections
    # ------------------------------------------------------------------ #
    @cached_property
    def sections(self) -> list[SectionHeader]:
        """All section headers with resolved names."""
        header = self.header
        if header.e_shoff == 0 or header.e_shnum == 0:
            return []
        raw: list[SectionHeader] = []
        for index in range(header.e_shnum):
            offset = header.e_shoff + index * header.e_shentsize
            raw.append(SectionHeader.unpack(self.data, offset))
        # Resolve names through the section-header string table.
        if header.e_shstrndx < len(raw):
            strtab_header = raw[header.e_shstrndx]
            table = StringTable(self._section_bytes(strtab_header))
            raw = [
                SectionHeader(
                    sh_name=s.sh_name, sh_type=s.sh_type, sh_flags=s.sh_flags,
                    sh_addr=s.sh_addr, sh_offset=s.sh_offset, sh_size=s.sh_size,
                    sh_link=s.sh_link, sh_info=s.sh_info, sh_addralign=s.sh_addralign,
                    sh_entsize=s.sh_entsize, name=table.get(s.sh_name),
                )
                for s in raw
            ]
        return raw

    def _section_bytes(self, section: SectionHeader) -> bytes:
        end = section.sh_offset + section.sh_size
        if end > len(self.data):
            raise ELFError(f"section {section.name or section.sh_name} extends past end of file")
        return self.data[section.sh_offset:end]

    def get_section(self, name: str) -> SectionHeader | None:
        """Find a section header by name, or ``None``."""
        for section in self.sections:
            if section.name == name:
                return section
        return None

    def section_data(self, name: str) -> bytes:
        """Raw bytes of the named section (empty if absent)."""
        section = self.get_section(name)
        if section is None:
            return b""
        return self._section_bytes(section)

    # ------------------------------------------------------------------ #
    # collector queries
    # ------------------------------------------------------------------ #
    def comment_strings(self) -> list[str]:
        """Compiler identification strings recorded in ``.comment``."""
        payload = self.section_data(".comment")
        if not payload:
            return []
        parts = payload.split(b"\x00")
        return [part.decode("utf-8", errors="replace") for part in parts if part]

    def dynamic_entries(self) -> list[DynamicEntry]:
        """All entries of the ``.dynamic`` section (up to ``DT_NULL``)."""
        section = None
        for candidate in self.sections:
            if candidate.sh_type == SHT_DYNAMIC:
                section = candidate
                break
        if section is None:
            return []
        payload = self._section_bytes(section)
        entries: list[DynamicEntry] = []
        for offset in range(0, len(payload) - DYN_SIZE + 1, DYN_SIZE):
            entry = DynamicEntry.unpack(payload, offset)
            if entry.d_tag == DT_NULL:
                break
            entries.append(entry)
        return entries

    def _dynamic_strtab(self) -> StringTable | None:
        for candidate in self.sections:
            if candidate.sh_type == SHT_DYNAMIC:
                link = candidate.sh_link
                if 0 < link < len(self.sections):
                    return StringTable(self._section_bytes(self.sections[link]))
        section = self.get_section(".dynstr")
        if section is not None:
            return StringTable(self._section_bytes(section))
        return None

    def needed_libraries(self) -> list[str]:
        """``DT_NEEDED`` sonames, in declaration order."""
        table = self._dynamic_strtab()
        if table is None:
            return []
        return [table.get(e.d_val) for e in self.dynamic_entries() if e.d_tag == DT_NEEDED]

    def soname(self) -> str | None:
        """``DT_SONAME`` of a shared object, if present."""
        table = self._dynamic_strtab()
        if table is None:
            return None
        for entry in self.dynamic_entries():
            if entry.d_tag == DT_SONAME:
                return table.get(entry.d_val)
        return None

    @property
    def is_dynamically_linked(self) -> bool:
        """True if the image has a ``.dynamic`` section (so ld.so runs for it)."""
        return any(s.sh_type == SHT_DYNAMIC for s in self.sections)

    # ------------------------------------------------------------------ #
    # symbols
    # ------------------------------------------------------------------ #
    def _symbols_from(self, sh_type: int) -> list[Symbol]:
        for section in self.sections:
            if section.sh_type != sh_type:
                continue
            payload = self._section_bytes(section)
            strtab: StringTable | None = None
            if 0 < section.sh_link < len(self.sections):
                strtab = StringTable(self._section_bytes(self.sections[section.sh_link]))
            return [Symbol.unpack(payload, offset, strtab)
                    for offset in range(0, len(payload) - SYM_SIZE + 1, SYM_SIZE)]
        return []

    def symbols(self) -> list[Symbol]:
        """All ``.symtab`` symbols (falling back to ``.dynsym``)."""
        symtab = self._symbols_from(SHT_SYMTAB)
        return symtab if symtab else self._symbols_from(SHT_DYNSYM)

    def global_symbols(self) -> list[Symbol]:
        """Externally visible (global or weak) named symbols.

        These correspond to the "global scope ELF symbols" of the paper:
        functions and variables defined without ``static``, i.e. the public
        interface of the application, which SIREN argues is the most stable
        identifier across recompilations.
        """
        return [
            symbol
            for symbol in self.symbols()
            if symbol.name and symbol.binding in (STB_GLOBAL, STB_WEAK)
        ]

