"""Binary structures of the ELF64 little-endian format.

Each structure is a frozen dataclass with ``pack``/``unpack`` methods using
:mod:`struct`.  Only the fields the reproduction needs are modelled, but the
on-disk layout is complete and correct so images round-trip through any
conforming parser.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.elf.constants import (
    DYN_SIZE,
    EHDR_SIZE,
    ELF_MAGIC,
    ELFCLASS64,
    ELFDATA2LSB,
    ELFOSABI_SYSV,
    EM_X86_64,
    ET_EXEC,
    EV_CURRENT,
    SHDR_SIZE,
    SYM_SIZE,
    st_bind,
    st_info,
    st_type,
)
from repro.util.errors import ELFError

_EHDR_FMT = "<16sHHIQQQIHHHHHH"
_SHDR_FMT = "<IIQQQQIIQQ"
_SYM_FMT = "<IBBHQQ"
_DYN_FMT = "<qQ"
_PHDR_FMT = "<IIQQQQQQ"


@dataclass(frozen=True)
class ELFHeader:
    """The ELF file header (``Elf64_Ehdr``)."""

    e_type: int = ET_EXEC
    e_machine: int = EM_X86_64
    e_version: int = EV_CURRENT
    e_entry: int = 0x401000
    e_phoff: int = 0
    e_shoff: int = 0
    e_flags: int = 0
    e_ehsize: int = EHDR_SIZE
    e_phentsize: int = 0
    e_phnum: int = 0
    e_shentsize: int = SHDR_SIZE
    e_shnum: int = 0
    e_shstrndx: int = 0

    def pack(self) -> bytes:
        """Serialise the header to its 64-byte on-disk form."""
        ident = ELF_MAGIC + bytes(
            [ELFCLASS64, ELFDATA2LSB, EV_CURRENT, ELFOSABI_SYSV, 0]
        ) + b"\x00" * 7
        return struct.pack(
            _EHDR_FMT,
            ident,
            self.e_type,
            self.e_machine,
            self.e_version,
            self.e_entry,
            self.e_phoff,
            self.e_shoff,
            self.e_flags,
            self.e_ehsize,
            self.e_phentsize,
            self.e_phnum,
            self.e_shentsize,
            self.e_shnum,
            self.e_shstrndx,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ELFHeader":
        """Parse the first 64 bytes of an ELF64LE image."""
        if len(data) < EHDR_SIZE:
            raise ELFError("truncated ELF header")
        fields = struct.unpack_from(_EHDR_FMT, data, 0)
        ident = fields[0]
        if ident[:4] != ELF_MAGIC:
            raise ELFError("missing ELF magic")
        if ident[4] != ELFCLASS64 or ident[5] != ELFDATA2LSB:
            raise ELFError("only ELF64 little-endian images are supported")
        return cls(
            e_type=fields[1],
            e_machine=fields[2],
            e_version=fields[3],
            e_entry=fields[4],
            e_phoff=fields[5],
            e_shoff=fields[6],
            e_flags=fields[7],
            e_ehsize=fields[8],
            e_phentsize=fields[9],
            e_phnum=fields[10],
            e_shentsize=fields[11],
            e_shnum=fields[12],
            e_shstrndx=fields[13],
        )


@dataclass(frozen=True)
class SectionHeader:
    """A section header (``Elf64_Shdr``) plus its resolved name."""

    sh_name: int = 0
    sh_type: int = 0
    sh_flags: int = 0
    sh_addr: int = 0
    sh_offset: int = 0
    sh_size: int = 0
    sh_link: int = 0
    sh_info: int = 0
    sh_addralign: int = 1
    sh_entsize: int = 0
    name: str = field(default="", compare=False)

    def pack(self) -> bytes:
        """Serialise to the 64-byte on-disk form."""
        return struct.pack(
            _SHDR_FMT,
            self.sh_name,
            self.sh_type,
            self.sh_flags,
            self.sh_addr,
            self.sh_offset,
            self.sh_size,
            self.sh_link,
            self.sh_info,
            self.sh_addralign,
            self.sh_entsize,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0, name: str = "") -> "SectionHeader":
        """Parse one section header at ``offset``."""
        if len(data) < offset + SHDR_SIZE:
            raise ELFError("truncated section header")
        fields = struct.unpack_from(_SHDR_FMT, data, offset)
        return cls(*fields, name=name)


@dataclass(frozen=True)
class Symbol:
    """A symbol-table entry (``Elf64_Sym``) plus its resolved name."""

    st_name: int = 0
    st_info: int = 0
    st_other: int = 0
    st_shndx: int = 0
    st_value: int = 0
    st_size: int = 0
    name: str = field(default="", compare=False)

    @property
    def binding(self) -> int:
        """Symbol binding (``STB_*``)."""
        return st_bind(self.st_info)

    @property
    def symbol_type(self) -> int:
        """Symbol type (``STT_*``)."""
        return st_type(self.st_info)

    @classmethod
    def create(
        cls,
        name_offset: int,
        binding: int,
        symbol_type: int,
        value: int,
        size: int,
        shndx: int,
        name: str = "",
    ) -> "Symbol":
        """Build a symbol from semantic fields."""
        return cls(
            st_name=name_offset,
            st_info=st_info(binding, symbol_type),
            st_other=0,
            st_shndx=shndx,
            st_value=value,
            st_size=size,
            name=name,
        )

    def pack(self) -> bytes:
        """Serialise to the 24-byte on-disk form."""
        return struct.pack(
            _SYM_FMT,
            self.st_name,
            self.st_info,
            self.st_other,
            self.st_shndx,
            self.st_value,
            self.st_size,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0,
               strings: StringTable | None = None) -> "Symbol":
        """Parse one symbol entry at ``offset``, its name resolved in ``strings``."""
        if len(data) < offset + SYM_SIZE:
            raise ELFError("truncated symbol entry")
        fields = struct.unpack_from(_SYM_FMT, data, offset)
        return cls(*fields, name=strings.get(fields[0]) if strings is not None else "")


@dataclass(frozen=True)
class DynamicEntry:
    """A ``.dynamic`` entry (``Elf64_Dyn``)."""

    d_tag: int
    d_val: int

    def pack(self) -> bytes:
        """Serialise to the 16-byte on-disk form."""
        return struct.pack(_DYN_FMT, self.d_tag, self.d_val)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "DynamicEntry":
        """Parse one dynamic entry at ``offset``."""
        if len(data) < offset + DYN_SIZE:
            raise ELFError("truncated dynamic entry")
        tag, val = struct.unpack_from(_DYN_FMT, data, offset)
        return cls(d_tag=tag, d_val=val)


@dataclass(frozen=True)
class ProgramHeader:
    """A program header (``Elf64_Phdr``); emitted for realism only."""

    p_type: int
    p_flags: int
    p_offset: int
    p_vaddr: int
    p_paddr: int
    p_filesz: int
    p_memsz: int
    p_align: int = 0x1000

    def pack(self) -> bytes:
        """Serialise to the 56-byte on-disk form."""
        return struct.pack(
            _PHDR_FMT,
            self.p_type,
            self.p_flags,
            self.p_offset,
            self.p_vaddr,
            self.p_paddr,
            self.p_filesz,
            self.p_memsz,
            self.p_align,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "ProgramHeader":
        """Parse one program header at ``offset``."""
        fields = struct.unpack_from(_PHDR_FMT, data, offset)
        return cls(*fields)


class StringTable:
    """Builder/reader for ELF string-table sections (NUL-separated names)."""

    def __init__(self, data: bytes = b"\x00") -> None:
        if not data or data[0] != 0:
            data = b"\x00" + data
        self._data = bytearray(data)
        self._offsets: dict[str, int] = {}

    def add(self, text: str) -> int:
        """Add a string (if new) and return its offset in the table."""
        if text == "":
            return 0
        existing = self._offsets.get(text)
        if existing is not None:
            return existing
        offset = len(self._data)
        self._data.extend(text.encode("utf-8") + b"\x00")
        self._offsets[text] = offset
        return offset

    def get(self, offset: int) -> str:
        """Return the NUL-terminated string starting at ``offset``."""
        if offset >= len(self._data):
            raise ELFError(f"string table offset {offset} out of range")
        end = self._data.find(b"\x00", offset)
        if end == -1:
            end = len(self._data)
        return self._data[offset:end].decode("utf-8", errors="replace")

    def pack(self) -> bytes:
        """Return the raw table bytes."""
        return bytes(self._data)

    def __len__(self) -> int:
        return len(self._data)
