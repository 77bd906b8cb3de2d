"""Synthetic software corpus.

The paper's data comes from real software executed by 12 opt-in LUMI users:
system tools (``bash``, ``srun``, ``mkdir`` ...), scientific applications
(LAMMPS, GROMACS, ICON, Amber, ...), user-installed utilities, Python
interpreters and scripts.  None of that software is available here, so this
subpackage defines a synthetic corpus with the same *structure*:

* :mod:`repro.corpus.toolchains` -- the compiler toolchains and the
  ``.comment`` identification strings they leave in binaries,
* :mod:`repro.corpus.libraries` -- a catalog of shared libraries (Cray PE,
  ROCm, HDF5/NetCDF, spack/tykky stacks, ...) with install paths chosen so
  the paper's substring-derived library tags come out identically,
* :mod:`repro.corpus.system_tools` -- the system-directory executables,
* :mod:`repro.corpus.packages` -- the scientific software packages with their
  per-variant compilers, libraries, public symbols and versions,
* :mod:`repro.corpus.python_env` -- Python interpreters, importable packages
  (with native extension modules that show up in memory maps) and scripts,
* :mod:`repro.corpus.builder` -- the :class:`CorpusBuilder` that materialises
  all of the above as ELF images and scripts inside a virtual filesystem and
  returns a manifest the workload generator consumes.
"""

from repro.corpus.builder import CorpusBuilder, CorpusManifest, InstalledExecutable
from repro.corpus.libraries import LIBRARY_CATALOG, LibrarySpec
from repro.corpus.packages import PACKAGES, PackageSpec, VariantSpec
from repro.corpus.python_env import PYTHON_INTERPRETERS, PYTHON_PACKAGES, PythonInterpreterSpec
from repro.corpus.system_tools import SYSTEM_TOOLS, SystemToolSpec
from repro.corpus.toolchains import TOOLCHAINS

__all__ = [
    "CorpusBuilder",
    "CorpusManifest",
    "InstalledExecutable",
    "LIBRARY_CATALOG",
    "LibrarySpec",
    "PACKAGES",
    "PackageSpec",
    "VariantSpec",
    "PYTHON_INTERPRETERS",
    "PYTHON_PACKAGES",
    "PythonInterpreterSpec",
    "SYSTEM_TOOLS",
    "SystemToolSpec",
    "TOOLCHAINS",
]
