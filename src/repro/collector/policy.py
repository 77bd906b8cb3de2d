"""Selective collection: Table 1 of the paper, and the rank rule.

Different executable categories warrant different amounts of collection: it
is pointless to fuzzy-hash ``/usr/bin/bash`` on every invocation, while a user
executable gets the full treatment.  Table 1 of the paper is one fixed
policy:

==============  =======  =====  ===========  ======
Information     System   User   Interpreter  Script
==============  =======  =====  ===========  ======
File metadata    yes      yes    yes          yes
Libraries        yes      yes    yes          no
Modules          no       yes    no           no
Compilers        no       yes    no           no
Memory map       no       yes    yes          no
File_H           no       yes    no           yes
Strings_H        no       yes    no           no
Symbols_H        no       yes    no           no
==============  =======  =====  ===========  ======

:data:`TABLE_1` declares it once, as the wire sections each scope sends; the
collector, ingest's incomplete flag and the tests' launch ledger all read it.
"""

from __future__ import annotations

from repro.collector.classify import ExecutableCategory
from repro.collector.records import InfoType, Layer

#: Table 1 as the wire sections a collected process sends, per scope, in the
#: order the collector sends them, after the scope's ``PROCINFO``.  The three
#: process categories send on the ``SELF`` layer; a Python interpreter's
#: input script is the ``SCRIPT`` layer's scope.  A collected list (libraries,
#: modules, compilers, memory map) travels with its fuzzy hash, the ``_H``
#: section; compiler strings are sent only for an ELF executable.
TABLE_1: dict[ExecutableCategory | Layer, tuple[InfoType, ...]] = {
    ExecutableCategory.SYSTEM: (InfoType.FILEMETA, InfoType.OBJECTS, InfoType.OBJECTS_H),
    ExecutableCategory.USER: (
        InfoType.FILEMETA, InfoType.OBJECTS, InfoType.OBJECTS_H,
        InfoType.MODULES, InfoType.MODULES_H, InfoType.COMPILERS, InfoType.COMPILERS_H,
        InfoType.MAPS, InfoType.MAPS_H,
        InfoType.FILE_H, InfoType.STRINGS_H, InfoType.SYMBOLS_H),
    ExecutableCategory.PYTHON: (
        InfoType.FILEMETA, InfoType.OBJECTS, InfoType.OBJECTS_H,
        InfoType.MAPS, InfoType.MAPS_H),
    Layer.SCRIPT: (InfoType.FILEMETA, InfoType.FILE_H),
}


def should_collect_rank(procid: str | int) -> bool:
    """True if a process with this ``SLURM_PROCID`` is collected: rank 0
    only, so an MPI job's data is not duplicated per rank."""
    try:
        return int(procid) == 0
    except (TypeError, ValueError):
        # Outside a Slurm step (no SLURM_PROCID) everything is collected.
        return True
