"""Minimal ELF64 support: parse executables, and build synthetic ones.

SIREN's collector uses ``libelf`` to pull three things out of every user
executable: the compiler identification strings left in the ``.comment``
section, the externally visible (global-scope) symbols, and the list of
``DT_NEEDED`` shared objects.  It additionally fuzzy-hashes the raw file
content and its printable strings.

The reproduction environment has neither real HPC executables nor
``pyelftools``, so this subpackage provides both halves of that pipeline:

* :class:`~repro.elf.builder.ELFBuilder` produces structurally valid ELF64
  little-endian images with ``.text``, ``.rodata``, ``.comment``, ``.dynstr``,
  ``.dynamic`` (``DT_NEEDED`` entries), ``.dynsym``/``.symtab`` and string
  tables -- enough structure that a generic ELF parser recognises them and
  that fuzzy hashes of file/strings/symbols behave like they do for real
  binaries (small source changes perturb a small part of the image).  It is
  the substrate's half, so this package does not re-export it.
* :class:`~repro.elf.reader.ELFFile` parses those images (or any conforming
  ELF64LE image) and exposes the extraction helpers the collector needs: with
  :mod:`repro.elf.strings` and :mod:`repro.elf.symbols` it is the collector's
  ``libelf``.
"""

from repro.elf.constants import (
    EM_X86_64,
    ET_DYN,
    ET_EXEC,
    SHT_DYNAMIC,
    SHT_DYNSYM,
    SHT_PROGBITS,
    SHT_STRTAB,
    SHT_SYMTAB,
    STB_GLOBAL,
    STB_LOCAL,
    STT_FUNC,
    STT_OBJECT,
)
from repro.elf.reader import ELFFile, is_elf
from repro.elf.structures import ELFHeader, SectionHeader, Symbol

__all__ = [
    "ELFFile",
    "ELFHeader",
    "SectionHeader",
    "Symbol",
    "is_elf",
    "ET_EXEC",
    "ET_DYN",
    "EM_X86_64",
    "SHT_PROGBITS",
    "SHT_STRTAB",
    "SHT_SYMTAB",
    "SHT_DYNSYM",
    "SHT_DYNAMIC",
    "STB_GLOBAL",
    "STB_LOCAL",
    "STT_FUNC",
    "STT_OBJECT",
]
