"""Post-processing: UDP messages -> consolidated per-process records.

Two steps, exactly as in the paper:

1. :mod:`repro.postprocess.consolidate` merges the (possibly chunked, possibly
   partially lost) UDP messages of each process into a single record, and
   merges the Python *script* layer into its parent interpreter record
   (:mod:`repro.ingest` calls it as each process's messages arrive).
2. :mod:`repro.postprocess.python_merge` extracts the imported Python packages
   from the memory-mapped files of Python interpreter processes.
"""

from repro.postprocess.consolidate import (
    MessageGroup,
    build_process_record,
    expected_types_for,
)
from repro.postprocess.python_merge import extract_python_packages, package_from_mapped_path

__all__ = [
    "MessageGroup",
    "build_process_record",
    "expected_types_for",
    "extract_python_packages",
    "package_from_mapped_path",
]
