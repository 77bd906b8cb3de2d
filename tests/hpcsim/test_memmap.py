"""Tests for the /proc/<pid>/maps simulation."""

from repro.hpcsim.memmap import MemoryRegion, build_memory_map, render_memory_map


class TestMemoryRegionRendering:
    def test_format_matches_proc_maps(self):
        region = MemoryRegion(0x400000, 0x401000, "r-xp", 0, "fd:01", 1234, "/usr/bin/bash")
        line = region.render()
        address_range, perms, offset, device, inode, path = line.split()
        assert "-" in address_range
        assert perms == "r-xp"
        assert device == "fd:01"
        assert inode == "1234"
        assert path == "/usr/bin/bash"


class TestBuildMemoryMap:
    def test_contains_executable_and_objects(self):
        regions = build_memory_map("/usr/bin/python3.10", 4096, 11,
                                   [("/lib64/libc.so.6", 2048, 12)],
                                   [("/usr/lib64/python3.10/lib-dynload/_heapq.so", 512, 13)])
        paths = {region.path for region in regions}
        assert "/usr/bin/python3.10" in paths
        assert "/lib64/libc.so.6" in paths
        assert "/usr/lib64/python3.10/lib-dynload/_heapq.so" in paths
        assert "[stack]" in paths and "[heap]" in paths and "[vdso]" in paths

    def test_two_regions_per_file(self):
        regions = build_memory_map("/usr/bin/x", 4096, 1, [("/lib64/libc.so.6", 100, 2)])
        libc = [r for r in regions if r.path == "/lib64/libc.so.6"]
        assert len(libc) == 2
        assert {r.permissions for r in libc} == {"r-xp", "rw-p"}

    def test_deterministic_addresses(self):
        a = build_memory_map("/usr/bin/x", 4096, 1, [("/lib64/libm.so.6", 100, 2)])
        b = build_memory_map("/usr/bin/x", 4096, 1, [("/lib64/libm.so.6", 100, 2)])
        assert render_memory_map(a) == render_memory_map(b)

    def test_executable_mapped_at_fixed_base(self):
        regions = build_memory_map("/usr/bin/x", 4096, 1, [])
        assert regions[0].start == 0x400000

