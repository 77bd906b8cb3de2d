"""System-directory executables.

Table 3 of the paper lists the most frequently used executables from system
directories (``/usr/bin/srun``, ``/usr/bin/bash``, ``/usr/bin/lua5.3`` ...)
out of 112 distinct system executables.  This module defines a representative
set of those tools: each is a small dynamically linked ELF executable whose
``DT_NEEDED`` list is chosen so the loaded-object analysis behaves like the
real thing (``bash`` pulls ``libtinfo``; ``srun`` pulls the Slurm/munge
libraries; ``grep`` pulls ``libpcre``; and so on).

The paper's Table 1 policy means SIREN records only file metadata and loaded
libraries for these executables -- no hashing -- so their content only needs to
be structurally valid, not large.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemToolSpec:
    """One system-directory executable."""

    name: str
    directory: str
    library_keys: tuple[str, ...]
    strings: tuple[str, ...] = ()
    text_size: int = 1536
    static: bool = False      #: statically linked tools are invisible to SIREN


def _tool(name: str, keys: tuple[str, ...], directory: str = "/usr/bin",
          strings: tuple[str, ...] = (), static: bool = False) -> SystemToolSpec:
    return SystemToolSpec(name=name, directory=directory, library_keys=keys,
                          strings=strings, static=static)


_COREUTILS = ("libc", "libacl", "libcap")

#: The system tools installed by the corpus builder.
SYSTEM_TOOLS: tuple[SystemToolSpec, ...] = (
    _tool("srun", ("libc", "libslurm", "libmunge", "pthread"),
          strings=("srun: error: %s", "Usage: srun [OPTIONS(0)...]")),
    _tool("sbatch", ("libc", "libslurm", "libmunge")),
    _tool("squeue", ("libc", "libslurm", "libmunge")),
    _tool("sacct", ("libc", "libslurm", "libmunge")),
    _tool("bash", ("libc", "libtinfo-default", "libdl"),
          strings=("GNU bash, version 4.4.23(1)-release",)),
    _tool("sh", ("libc", "libtinfo-default", "libdl")),
    _tool("lua5.3", ("libc", "liblua", "libm", "libdl"),
          strings=("Lua 5.3.6  Copyright (C) 1994-2020 Lua.org",)),
    _tool("rm", _COREUTILS),
    _tool("cat", _COREUTILS),
    _tool("uname", _COREUTILS),
    _tool("ls", ("libc", "libacl", "libcap", "libselinux", "libpcre")),
    _tool("mkdir", _COREUTILS),
    _tool("grep", ("libc", "libpcre")),
    _tool("cp", ("libc", "libacl", "libselinux")),
    _tool("mv", ("libc", "libacl", "libselinux")),
    _tool("sed", ("libc", "libacl")),
    _tool("gawk", ("libc", "libm", "libreadline")),
    _tool("tar", ("libc", "libacl", "libselinux")),
    _tool("gzip", ("libc",)),
    _tool("date", _COREUTILS),
    _tool("hostname", ("libc",)),
    _tool("sleep", ("libc",)),
    _tool("echo", ("libc",)),
    _tool("env", ("libc",)),
    _tool("id", ("libc", "libselinux")),
    _tool("chmod", _COREUTILS),
    _tool("tail", _COREUTILS),
    _tool("head", _COREUTILS),
    _tool("sort", ("libc", "pthread")),
    _tool("find", ("libc", "libselinux")),
    _tool("wc", _COREUTILS),
    _tool("touch", _COREUTILS),
    _tool("dirname", ("libc",)),
    _tool("basename", ("libc",)),
    _tool("readlink", ("libc",)),
    _tool("ln", ("libc", "libacl", "libselinux")),
    _tool("df", ("libc",)),
    _tool("du", ("libc",)),
    _tool("tee", ("libc",)),
    _tool("cut", ("libc",)),
    _tool("tr", ("libc",)),
    _tool("xargs", ("libc",)),
    _tool("ssh", ("libc", "libcrypto", "libz", "libselinux"), strings=("OpenSSH_8.4p1",)),
    _tool("scp", ("libc", "libcrypto", "libz")),
    _tool("rsync", ("libc", "libz", "libacl"), strings=("rsync  version 3.2.3",)),
    _tool("curl", ("libc", "libcrypto", "libz", "pthread")),
    _tool("wget", ("libc", "libcrypto", "libz", "libpcre")),
    _tool("time", ("libc",), directory="/usr/bin"),
    _tool("numactl", ("libc", "numa")),
    _tool("ldd", ("libc",)),
    _tool("file", ("libc", "libz")),
    _tool("diff", ("libc",)),
    _tool("md5sum", ("libc",)),
    _tool("sha256sum", ("libc",)),
    _tool("seq", ("libc",)),
    _tool("true", ("libc",), directory="/usr/bin"),
    _tool("false", ("libc",)),
    _tool("printf", ("libc",)),
    _tool("stat", ("libc", "libselinux")),
    _tool("busybox", ("libc",), directory="/usr/bin", static=True),
)

SYSTEM_TOOLS_BY_NAME: dict[str, SystemToolSpec] = {tool.name: tool for tool in SYSTEM_TOOLS}


