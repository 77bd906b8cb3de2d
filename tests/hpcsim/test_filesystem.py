"""Tests for the virtual filesystem."""

import pytest

from repro.hpcsim.filesystem import (
    SYSTEM_DIRECTORIES,
    VirtualFilesystem,
    is_system_path,
    normalize_path,
)
from repro.util.errors import SimulationError


class TestSystemPathClassification:
    @pytest.mark.parametrize("path", ["/usr/bin/bash", "/lib/libc.so", "/opt/cray/pe/x",
                                      "/etc/passwd", "/var/log/messages", "/sbin/init"])
    def test_system_paths(self, path):
        assert is_system_path(path)

    @pytest.mark.parametrize("path", ["/project/p/user/lmp", "/users/alice/a.out",
                                      "/scratch/p/run/model.x", "/appl/local/tool"])
    def test_user_paths(self, path):
        assert not is_system_path(path)

    def test_all_paper_directories_covered(self):
        assert len(SYSTEM_DIRECTORIES) == 11


class TestNormalizePath:
    def test_collapses_duplicate_slashes(self):
        assert normalize_path("//usr//bin///bash") == "/usr/bin/bash"

    def test_rejects_relative(self):
        with pytest.raises(SimulationError):
            normalize_path("relative/path")


class TestVirtualFilesystem:
    def test_add_and_read(self):
        fs = VirtualFilesystem()
        fs.add_file("/usr/bin/tool", b"content", executable=True)
        assert fs.read("/usr/bin/tool") == b"content"
        assert fs.exists("/usr/bin/tool")
        assert "/usr/bin/tool" in fs

    def test_metadata_fields(self):
        fs = VirtualFilesystem()
        vfile = fs.add_file("/usr/bin/tool", b"12345", uid=7, gid=8, executable=True)
        meta = vfile.metadata
        assert meta.size == 5 and meta.uid == 7 and meta.gid == 8
        assert meta.mode & 0o111  # executable bits set
        assert meta.mtime == fs.clock

    def test_inode_allocation_unique(self):
        fs = VirtualFilesystem()
        a = fs.add_file("/a", b"x").metadata.inode
        b = fs.add_file("/b", b"x").metadata.inode
        assert a != b

    def test_replacement_keeps_inode_updates_ctime(self):
        fs = VirtualFilesystem()
        first = fs.add_file("/a", b"x")
        fs.advance_clock(100)
        second = fs.add_file("/a", b"longer content")
        assert second.metadata.inode == first.metadata.inode
        assert second.metadata.ctime == first.metadata.ctime + 100
        assert second.metadata.size == len(b"longer content")

    def test_every_write_gets_a_version_no_other_write_has(self):
        """Same-tick rewrites, re-creations and other paths all differ in
        ``version``; reads and ``touch_atime`` leave it alone, and it stays out
        of the metadata dict (which is FILEMETA wire content)."""
        fs = VirtualFilesystem()
        versions = [fs.add_file("/a", b"x").version, fs.add_file("/a", b"y").version,
                    fs.add_file("/b", b"x").version]
        fs.remove("/a")
        versions.append(fs.add_file("/a", b"x").version)
        assert len(set(versions)) == 4
        fs.touch_atime("/a")
        assert fs.get("/a").version == versions[-1]
        assert set(fs.stat("/a").as_dict()) == {"inode", "size", "mode", "uid", "gid",
                                                "atime", "mtime", "ctime"}

    def test_missing_file_raises(self):
        with pytest.raises(SimulationError):
            VirtualFilesystem().read("/nope")

    def test_remove(self):
        fs = VirtualFilesystem()
        fs.add_file("/a", b"x")
        fs.remove("/a")
        assert not fs.exists("/a")
        with pytest.raises(SimulationError):
            fs.remove("/a")

    def test_clock_cannot_go_backwards(self):
        with pytest.raises(SimulationError):
            VirtualFilesystem().advance_clock(-1)

    def test_touch_atime(self):
        fs = VirtualFilesystem()
        fs.add_file("/a", b"x")
        fs.advance_clock(50)
        fs.touch_atime("/a")
        assert fs.stat("/a").atime == fs.clock

    def test_listdir_direct_children_only(self):
        fs = VirtualFilesystem()
        fs.add_file("/usr/bin/a", b"x")
        fs.add_file("/usr/bin/b", b"x")
        fs.add_file("/usr/bin/sub/c", b"x")
        assert fs.listdir("/usr/bin") == ["/usr/bin/a", "/usr/bin/b"]

    def test_glob_prefix(self):
        fs = VirtualFilesystem()
        fs.add_file("/opt/rocm/lib/librocblas.so", b"x")
        fs.add_file("/opt/cray/lib/libsci.so", b"x")
        assert fs.glob_prefix("/opt/rocm") == ["/opt/rocm/lib/librocblas.so"]

    def test_executables_listing(self):
        fs = VirtualFilesystem()
        fs.add_file("/usr/bin/tool", b"x", executable=True)
        fs.add_file("/etc/config", b"x")
        assert [f.path for f in fs.executables()] == ["/usr/bin/tool"]

    def test_file_name_and_directory(self):
        fs = VirtualFilesystem()
        vfile = fs.add_file("/project/x/bin/lmp", b"x")
        assert vfile.name == "lmp"
        assert vfile.directory == "/project/x/bin"

    def test_len(self):
        fs = VirtualFilesystem()
        fs.add_file("/a", b"")
        fs.add_file("/b", b"")
        assert len(fs) == 2
