"""Tests for the dynamic-linker simulation."""

import pytest

from repro.elf.builder import ELFBuilder
from repro.elf.constants import ET_DYN, ET_EXEC
from repro.elf.reader import ELFFile
from repro.hpcsim.dynlinker import DynamicLinker
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.util.errors import SimulationError


def _library(soname: str, needed: list[str] | None = None) -> bytes:
    builder = ELFBuilder(file_type=ET_DYN, soname=soname)
    builder.set_text_from_source(soname, size=256)
    builder.add_needed_many(needed or [])
    return builder.build()


def _executable(needed: list[str], dynamic: bool = True) -> bytes:
    builder = ELFBuilder(file_type=ET_EXEC)
    builder.set_text_from_source("exe", size=256)
    if dynamic:
        builder.add_needed_many(needed)
    return builder.build()


@pytest.fixture()
def environment() -> tuple[VirtualFilesystem, DynamicLinker]:
    fs = VirtualFilesystem()
    fs.add_file("/lib64/libc.so.6", _library("libc.so.6"), executable=True)
    fs.add_file("/lib64/libm.so.6", _library("libm.so.6"), executable=True)
    fs.add_file("/lib64/libtinfo.so.6", _library("libtinfo.so.6"), executable=True)
    fs.add_file("/appl/alt/libtinfo.so.6", _library("libtinfo.so.6", ["libm.so.6"]),
                executable=True)
    fs.add_file("/appl/local/siren/lib/siren.so", _library("siren.so"), executable=True)
    fs.add_file("/usr/bin/bash", _executable(["libc.so.6", "libtinfo.so.6"]), executable=True)
    fs.add_file("/usr/bin/static-tool", _executable([], dynamic=False), executable=True)
    return fs, DynamicLinker(fs)


class TestSearchPath:
    def test_default_paths_used(self, environment):
        _, linker = environment
        dirs = linker.search_directories({})
        assert "/lib64" in dirs

    def test_ld_library_path_first(self, environment):
        _, linker = environment
        dirs = linker.search_directories({"LD_LIBRARY_PATH": "/appl/alt:/other"})
        assert dirs[:2] == ["/appl/alt", "/other"]

    def test_resolve_soname(self, environment):
        _, linker = environment
        assert linker.resolve_soname("libc.so.6", ["/lib64"]) == "/lib64/libc.so.6"
        assert linker.resolve_soname("libzzz.so", ["/lib64"]) is None


class TestLinking:
    def test_basic_resolution(self, environment):
        _, linker = environment
        result = linker.link("/usr/bin/bash", {})
        assert "/lib64/libc.so.6" in result.loaded_objects
        assert "/lib64/libtinfo.so.6" in result.loaded_objects
        assert result.missing == ()
        assert not result.static

    def test_environment_changes_resolution(self, environment):
        """The Table 4 phenomenon: LD_LIBRARY_PATH swaps the libtinfo instance."""
        _, linker = environment
        default = linker.link("/usr/bin/bash", {})
        alt = linker.link("/usr/bin/bash", {"LD_LIBRARY_PATH": "/appl/alt"})
        assert "/lib64/libtinfo.so.6" in default.loaded_objects
        assert "/appl/alt/libtinfo.so.6" in alt.loaded_objects
        # The alternative libtinfo drags in libm transitively.
        assert "/lib64/libm.so.6" in alt.loaded_objects
        assert "/lib64/libm.so.6" not in default.loaded_objects

    def test_transitive_dependencies_resolved_once(self, environment):
        fs, linker = environment
        fs.add_file("/lib64/libdep.so.1", _library("libdep.so.1", ["libc.so.6"]),
                    executable=True)
        fs.add_file("/usr/bin/tool", _executable(["libdep.so.1", "libc.so.6"]), executable=True)
        linker.clear_cache()
        result = linker.link("/usr/bin/tool", {})
        assert result.loaded_objects.count("/lib64/libc.so.6") == 1

    def test_ld_preload_loaded_first(self, environment):
        _, linker = environment
        env = {"LD_PRELOAD": "/appl/local/siren/lib/siren.so"}
        result = linker.link("/usr/bin/bash", env)
        assert result.loaded_objects[0] == "/appl/local/siren/lib/siren.so"
        assert result.preloaded == ("/appl/local/siren/lib/siren.so",)

    def test_missing_preload_reported(self, environment):
        _, linker = environment
        result = linker.link("/usr/bin/bash", {"LD_PRELOAD": "/nowhere/siren.so"})
        assert "/nowhere/siren.so" in result.missing
        assert result.preloaded == ()

    def test_missing_needed_reported(self, environment):
        fs, linker = environment
        fs.add_file("/usr/bin/broken", _executable(["libmissing.so.1"]), executable=True)
        result = linker.link("/usr/bin/broken", {})
        assert "libmissing.so.1" in result.missing

    def test_static_executable(self, environment):
        _, linker = environment
        result = linker.link("/usr/bin/static-tool", {"LD_PRELOAD": "/appl/local/siren/lib/siren.so"})
        assert result.static
        assert result.loaded_objects == ()

    def test_is_dynamic(self, environment):
        _, linker = environment
        assert linker.is_dynamic("/usr/bin/bash")
        assert not linker.is_dynamic("/usr/bin/static-tool")

    def test_is_dynamic_matches_the_uncached_elf_parse(self, environment):
        """Cold and cached answers equal ``ELFFile(...).is_dynamically_linked``,
        also after a file is replaced under the same path."""
        fs, linker = environment
        paths = ("/usr/bin/bash", "/usr/bin/static-tool", "/lib64/libc.so.6")
        for _ in range(2):  # second pass is served from the cache
            for path in paths:
                assert linker.is_dynamic(path) == \
                    ELFFile(fs.read(path)).is_dynamically_linked
        fs.advance_clock(10)
        fs.add_file("/usr/bin/bash", _executable([], dynamic=False), executable=True)
        assert linker.is_dynamic("/usr/bin/bash") is False
        assert not ELFFile(fs.read("/usr/bin/bash")).is_dynamically_linked

    def test_script_counts_as_dynamic(self, environment):
        fs, linker = environment
        fs.add_file("/users/a/run.sh", b"#!/bin/bash\necho hi\n", executable=True)
        assert linker.is_dynamic("/users/a/run.sh")

    def test_missing_executable_raises(self, environment):
        _, linker = environment
        with pytest.raises(SimulationError):
            linker.link("/does/not/exist", {})

    def test_needed_cache_respects_mtime(self, environment):
        fs, linker = environment
        first = linker.link("/usr/bin/bash", {})
        # Replace bash with a binary that needs libm instead of libtinfo.
        fs.advance_clock(10)
        fs.add_file("/usr/bin/bash", _executable(["libc.so.6", "libm.so.6"]), executable=True)
        second = linker.link("/usr/bin/bash", {})
        assert "/lib64/libtinfo.so.6" in first.loaded_objects
        assert "/lib64/libm.so.6" in second.loaded_objects

