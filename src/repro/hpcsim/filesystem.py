"""In-memory virtual filesystem with POSIX-like metadata.

SIREN collects executable file metadata (inode number, file size, permissions,
owner UID/GID, and access/modification/change timestamps) and classifies
processes by whether their executable lives under a *system directory*
(``/usr/bin``, ``/lib`` ...) or a *user directory* (project/home/scratch
paths).  The virtual filesystem provides those two facilities: files with full
metadata, and the system-directory classification used by the collector's
selective-collection policy (Table 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.errors import SimulationError

#: Directories whose executables the paper classifies as "system" processes.
SYSTEM_DIRECTORIES: tuple[str, ...] = (
    "/etc/", "/dev/", "/usr/", "/bin/", "/boot/", "/lib/",
    "/opt/", "/sbin/", "/sys/", "/proc/", "/var/",
)


def is_system_path(path: str) -> bool:
    """True if ``path`` lives under one of the paper's system directories."""
    return any(path.startswith(prefix) for prefix in SYSTEM_DIRECTORIES)


def normalize_path(path: str) -> str:
    """Normalise a path: collapse duplicate slashes, forbid relative paths."""
    if not path.startswith("/"):
        raise SimulationError(f"virtual filesystem paths must be absolute: {path!r}")
    parts = [part for part in path.split("/") if part]
    return "/" + "/".join(parts)


@dataclass(frozen=True)
class FileMetadata:
    """POSIX-style metadata, matching the fields SIREN collects."""

    inode: int
    size: int
    mode: int
    uid: int
    gid: int
    atime: int
    mtime: int
    ctime: int

    def as_dict(self) -> dict[str, int]:
        """Dictionary form used when serialising collector records."""
        return {
            "inode": self.inode,
            "size": self.size,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "atime": self.atime,
            "mtime": self.mtime,
            "ctime": self.ctime,
        }


@dataclass
class VirtualFile:
    """A file in the virtual filesystem: content plus metadata."""

    path: str
    content: bytes
    metadata: FileMetadata
    executable: bool = False
    #: Filesystem-wide write sequence number of the ``add_file`` that put this
    #: content here: no two writes share one, so ``(path, version)`` names one
    #: content even when a rewrite within a clock tick leaves ``mtime``, inode
    #: and size alone.  Deliberately not part of :class:`FileMetadata`, whose
    #: ``as_dict()`` is FILEMETA wire content.
    version: int = 0

    @property
    def name(self) -> str:
        """Base name of the file."""
        return self.path.rsplit("/", 1)[-1]

    @property
    def directory(self) -> str:
        """Directory containing the file."""
        head = self.path.rsplit("/", 1)[0]
        return head or "/"


@dataclass
class VirtualFilesystem:
    """A flat path -> file mapping with inode allocation and timestamps.

    The filesystem clock is a simple integer (seconds); the cluster advances
    it as jobs run, so ``mtime``/``ctime`` values are deterministic.
    """

    clock: int = 1_733_000_000  # ~Dec 2024, matching the deployment campaign
    _files: dict[str, VirtualFile] = field(default_factory=dict)
    _next_inode: int = 100_000
    _writes: int = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_file(
        self,
        path: str,
        content: bytes,
        *,
        uid: int = 0,
        gid: int = 0,
        mode: int = 0o644,
        executable: bool = False,
        mtime: int | None = None,
    ) -> VirtualFile:
        """Create or replace a file; replacement bumps ctime and keeps the path."""
        path = normalize_path(path)
        timestamp = self.clock if mtime is None else mtime
        existing = self._files.get(path)
        inode = existing.metadata.inode if existing else self._allocate_inode()
        if executable:
            mode |= 0o111
        metadata = FileMetadata(
            inode=inode,
            size=len(content),
            mode=mode,
            uid=uid,
            gid=gid,
            atime=timestamp,
            mtime=timestamp,
            ctime=self.clock,
        )
        self._writes += 1
        vfile = VirtualFile(path=path, content=bytes(content), metadata=metadata,
                            executable=executable, version=self._writes)
        self._files[path] = vfile
        return vfile

    def _allocate_inode(self) -> int:
        inode = self._next_inode
        self._next_inode += 1
        return inode

    def remove(self, path: str) -> None:
        """Delete a file (missing paths raise)."""
        path = normalize_path(path)
        if path not in self._files:
            raise SimulationError(f"cannot remove missing file: {path}")
        del self._files[path]

    def touch_atime(self, path: str) -> None:
        """Record an access (updates atime to the current clock)."""
        vfile = self.get(path)
        vfile.metadata = replace(vfile.metadata, atime=self.clock)

    def advance_clock(self, seconds: int) -> int:
        """Advance the filesystem clock and return the new time."""
        if seconds < 0:
            raise SimulationError("clock cannot move backwards")
        self.clock += seconds
        return self.clock

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def exists(self, path: str) -> bool:
        """True if a file exists at ``path``."""
        return normalize_path(path) in self._files

    def get(self, path: str) -> VirtualFile:
        """Return the file at ``path`` (raises if missing)."""
        path = normalize_path(path)
        try:
            return self._files[path]
        except KeyError as exc:
            raise SimulationError(f"no such file: {path}") from exc

    def read(self, path: str) -> bytes:
        """Return the content of the file at ``path``."""
        return self.get(path).content

    def stat(self, path: str) -> FileMetadata:
        """Return the metadata of the file at ``path``."""
        return self.get(path).metadata

    def listdir(self, directory: str) -> list[str]:
        """Paths of files directly inside ``directory`` (sorted)."""
        directory = normalize_path(directory)
        prefix = directory.rstrip("/") + "/"
        return sorted(
            path for path in self._files
            if path.startswith(prefix) and "/" not in path[len(prefix):]
        )

    def glob_prefix(self, prefix: str) -> list[str]:
        """All paths starting with ``prefix`` (sorted)."""
        return sorted(path for path in self._files if path.startswith(prefix))

    def all_paths(self) -> list[str]:
        """Every path in the filesystem (sorted)."""
        return sorted(self._files)

    def executables(self) -> list[VirtualFile]:
        """All files flagged executable."""
        return [f for f in self._files.values() if f.executable]

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        return self.exists(path)
