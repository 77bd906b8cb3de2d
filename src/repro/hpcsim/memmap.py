"""``/proc/<pid>/maps`` simulation.

SIREN collects ``/proc/self/maps`` for user executables and Python
interpreters; for the latter, ingest parses the mapped extension modules into
the list of imported Python packages (Figure 3 of the paper).  This module
renders memory-map listings in the kernel's text format from the objects a
process has loaded, so SIREN reads the same text it would on a real system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hashing.xxhash import xxh64


@dataclass(frozen=True)
class MemoryRegion:
    """One line of a maps listing."""

    start: int
    end: int
    permissions: str
    offset: int
    device: str
    inode: int
    path: str

    def render(self) -> str:
        """Render in ``/proc/<pid>/maps`` format."""
        return (
            f"{self.start:012x}-{self.end:012x} {self.permissions} "
            f"{self.offset:08x} {self.device} {self.inode:>10d} {self.path}"
        )


def _base_address(path: str) -> int:
    """Deterministic pseudo-ASLR base address for a mapped object."""
    return 0x7F0000000000 + (xxh64(path.encode("utf-8")) % 0x0FFFFF) * 0x10000


def build_memory_map(
    executable: str,
    executable_size: int,
    executable_inode: int,
    loaded_objects: list[tuple[str, int, int]],
    extra_files: list[tuple[str, int, int]] | None = None,
) -> list[MemoryRegion]:
    """Build a plausible memory map for a process.

    Parameters
    ----------
    executable:
        Path of the main executable.
    executable_size, executable_inode:
        Its file size and inode.
    loaded_objects:
        ``(path, size, inode)`` for each loaded shared object.
    extra_files:
        Additional memory-mapped files, e.g. the native extension modules of
        imported Python packages.
    """
    regions: list[MemoryRegion] = []

    def add(path: str, size: int, inode: int, base: int | None = None) -> None:
        start = base if base is not None else _base_address(path)
        size = max(size, 0x1000)
        # Text mapping (r-xp) and data mapping (rw-p), like real ELF mappings.
        regions.append(MemoryRegion(start, start + size, "r-xp", 0, "fd:01", inode, path))
        regions.append(MemoryRegion(start + size, start + size + 0x1000, "rw-p",
                                    size, "fd:01", inode, path))

    add(executable, executable_size, executable_inode, base=0x400000)
    for path, size, inode in loaded_objects:
        add(path, size, inode)
    for path, size, inode in (extra_files or []):
        add(path, size, inode)

    # Anonymous regions every process has.
    regions.append(MemoryRegion(0x7FFE00000000, 0x7FFE00021000, "rw-p", 0, "00:00", 0, "[stack]"))
    regions.append(MemoryRegion(0x7FFF00000000, 0x7FFF00002000, "r-xp", 0, "00:00", 0, "[vdso]"))
    heap_base = 0x1400000
    regions.append(MemoryRegion(heap_base, heap_base + 0x200000, "rw-p", 0, "00:00", 0, "[heap]"))
    return regions


def render_memory_map(regions: list[MemoryRegion]) -> str:
    """Render a full maps listing (one region per line)."""
    return "\n".join(region.render() for region in regions)

