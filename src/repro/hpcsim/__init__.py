"""Simulated HPC system substrate.

SIREN was deployed on LUMI, an HPE Cray EX system running Slurm and an
LMOD-style module environment, and collects its data from inside user
processes via ``LD_PRELOAD``.  This subpackage is the stand-in for that
production substrate: a deterministic, in-memory simulation of

* a POSIX-like **virtual filesystem** with per-file metadata (inode, size,
  permissions, owner, timestamps) holding the synthetic executables, shared
  libraries, Python interpreters and scripts (:mod:`repro.hpcsim.filesystem`),
* **users and groups** (:mod:`repro.hpcsim.users`),
* an **environment-module system** that manipulates ``LOADEDMODULES``,
  library search paths and ``LD_PRELOAD`` (:mod:`repro.hpcsim.modules`) -- the
  SIREN deployment itself is just a module that prepends ``siren.so`` to
  ``LD_PRELOAD``,
* a **dynamic linker** that resolves ``DT_NEEDED`` sonames against the
  environment-dependent search path, honours ``LD_PRELOAD``, and records the
  loaded shared objects for each process (:mod:`repro.hpcsim.dynlinker`),
* ``/proc/self/maps``-style **memory maps** (:mod:`repro.hpcsim.memmap`),
* **processes** with PID/PPID/UID/GID and environment
  (:mod:`repro.hpcsim.process`), launched by
* a **Slurm-like scheduler** that assigns job/step/rank identifiers and the
  corresponding ``SLURM_*`` environment variables (:mod:`repro.hpcsim.slurm`),
* tied together by a **cluster** facade that runs job scripts and invokes any
  registered pre-load hooks at process start and exit
  (:mod:`repro.hpcsim.cluster`),
* and the seeded faults of the **network** SIREN's datagrams cross and of
  the host its store writes on (:mod:`repro.hpcsim.faults`).
"""

from repro.hpcsim.cluster import Cluster
from repro.hpcsim.dynlinker import DynamicLinker
from repro.hpcsim.filesystem import FileMetadata, VirtualFile, VirtualFilesystem
from repro.hpcsim.modules import Module, ModuleSystem
from repro.hpcsim.process import ProcessContext, ProcessRuntime
from repro.hpcsim.slurm import JobScript, ProcessSpec, SlurmJob, SlurmScheduler, StepSpec
from repro.hpcsim.users import User, UserRegistry

__all__ = [
    "Cluster",
    "DynamicLinker",
    "FileMetadata",
    "VirtualFile",
    "VirtualFilesystem",
    "Module",
    "ModuleSystem",
    "ProcessContext",
    "ProcessRuntime",
    "JobScript",
    "StepSpec",
    "ProcessSpec",
    "SlurmJob",
    "SlurmScheduler",
    "User",
    "UserRegistry",
]
