"""Executable-category classification (Section 3.1 of the paper).

Processes are divided by the origin of their executable:

* ``SYSTEM``  -- executables under one of the :data:`SYSTEM_DIRECTORIES`,
* ``USER``    -- executables anywhere else (project/home/scratch paths),
* ``PYTHON``  -- Python interpreters installed in a system directory (a
  Python interpreter installed in a user directory counts as USER).

Python *scripts* are not processes of their own; the collector handles them as
the ``SCRIPT`` layer of the interpreter process.
"""

from __future__ import annotations

import re
from enum import Enum

#: Directories whose executables the paper classifies as "system" processes.
SYSTEM_DIRECTORIES: tuple[str, ...] = (
    "/etc/", "/dev/", "/usr/", "/bin/", "/boot/", "/lib/",
    "/opt/", "/sbin/", "/sys/", "/proc/", "/var/",
)

#: Executable names that identify a Python interpreter (python, python3, python3.11, ...).
_PYTHON_NAME = re.compile(r"^python(\d+(\.\d+)?)?$")


class ExecutableCategory(str, Enum):
    """The three collection scopes of Table 1 (plus the script pseudo-scope)."""

    SYSTEM = "system"
    USER = "user"
    PYTHON = "python"


def is_system_path(path: str) -> bool:
    """True if ``path`` lives under one of the paper's system directories."""
    return path.startswith(SYSTEM_DIRECTORIES)


def is_python_interpreter(executable: str) -> bool:
    """True if the executable file name looks like a Python interpreter."""
    name = executable.rsplit("/", 1)[-1]
    return bool(_PYTHON_NAME.match(name))


def classify_executable(executable: str) -> ExecutableCategory:
    """Classify an executable path into system / user / python."""
    if is_system_path(executable):
        if is_python_interpreter(executable):
            return ExecutableCategory.PYTHON
        return ExecutableCategory.SYSTEM
    return ExecutableCategory.USER


def extract_script_path(argv: tuple[str, ...]) -> str | None:
    """Find the Python script path in an interpreter's argv, if any.

    The first non-option argument after the interpreter is taken as the
    script; ``-c`` / ``-m`` invocations have no script file to hash.
    """
    arguments = list(argv[1:])
    skip_next = False
    for argument in arguments:
        if skip_next:
            skip_next = False
            continue
        if argument in ("-c", "-m"):
            return None
        if argument in ("-W", "-X"):
            skip_next = True
            continue
        if argument.startswith("-"):
            continue
        return argument
    return None
