"""Symbol-listing helpers (the ``nm(1)`` equivalent).

The collector hashes the *global-scope* symbol names of an executable;
:func:`nm_listing` renders them sorted, so that the fuzzy hash of the symbol
table is stable regardless of symbol ordering inside the file.
"""

from __future__ import annotations

from repro.elf.constants import STT_FUNC, STT_OBJECT
from repro.elf.reader import ELFFile

_NM_CODES = {STT_FUNC: "T", STT_OBJECT: "D"}


def nm_listing(elf: ELFFile) -> str:
    """Render a deterministic ``nm``-style listing of the global symbols.

    Each line is ``<code> <name>`` where the code is ``T`` for functions and
    ``D`` for data objects (``U`` would be undefined symbols, which synthetic
    binaries do not carry).  Lines are sorted by name so that the listing --
    and therefore its fuzzy hash -- does not depend on symbol table order.
    """
    lines = [
        f"{_NM_CODES.get(symbol.symbol_type, 'T')} {symbol.name}"
        for symbol in elf.global_symbols()
    ]
    return "\n".join(sorted(lines))


