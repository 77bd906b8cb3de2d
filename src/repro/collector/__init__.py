"""The SIREN collector -- the Python equivalent of ``siren.so``.

This is the paper's primary contribution: a process-level data-collection
library injected via ``LD_PRELOAD`` whose constructor/destructor gather

* job and process identifiers (Slurm variables, PID/PPID/UID/GID, hostname),
* executable file metadata and an xxHash of the executable path,
* loaded modules, shared objects, compiler identification strings and the
  process memory map,
* SSDeep fuzzy hashes of the raw executable, its printable strings, its
  global ELF symbols, and of each collected list,
* and, for Python interpreters, metadata plus a fuzzy hash of the input
  script and the memory-mapped files that reveal imported packages,

then ship everything as chunked UDP messages to a central receiver.

Collection is *selective* per executable category (Table 1 of the paper) and
restricted to ``SLURM_PROCID == 0`` to avoid duplicating data across MPI
ranks.  Failures inside the collector never propagate into the hooked
process.
"""

from repro.collector.classify import ExecutableCategory, classify_process
from repro.collector.fuzzy import ArtifactHasher, ExecutableHashes
from repro.collector.hooks import SirenCollector
from repro.collector.policy import TABLE_1
from repro.collector.records import InfoType, Layer

__all__ = [
    "ArtifactHasher",
    "ExecutableCategory",
    "ExecutableHashes",
    "InfoType",
    "Layer",
    "SirenCollector",
    "TABLE_1",
    "classify_process",
]
