"""Tests for package, system-tool and Python-environment specifications."""

import pytest

from repro.collector.classify import is_system_path
from repro.corpus.libraries import LIBRARY_BY_KEY
from repro.corpus.packages import ICON, LAMMPS, PACKAGES, PACKAGES_BY_NAME
from repro.corpus.python_env import (
    COMMON_PACKAGES,
    PYTHON_INTERPRETERS,
    PYTHON_INTERPRETERS_BY_NAME,
    PYTHON_PACKAGES,
    PYTHON_PACKAGES_BY_NAME,
    extension_paths,
)
from repro.corpus.system_tools import SYSTEM_TOOLS, SYSTEM_TOOLS_BY_NAME
from repro.corpus.toolchains import TOOLCHAINS


class TestPackageSpecs:
    def test_paper_labels_present(self):
        assert set(PACKAGES_BY_NAME) == {
            "LAMMPS", "GROMACS", "miniconda", "janko", "icon", "amber", "gzip",
            "alexandria", "RadRad",
        }

    def test_every_variant_compiler_is_known(self):
        for package in PACKAGES:
            for variant in package.variants:
                for compiler in variant.compilers:
                    assert compiler in TOOLCHAINS

    def test_every_library_key_is_known(self):
        for package in PACKAGES:
            for variant in package.variants:
                for key in variant.library_keys(package.base_library_keys):
                    assert key in LIBRARY_BY_KEY

    def test_variant_ids_unique_per_package(self):
        for package in PACKAGES:
            ids = [variant.variant_id for variant in package.variants]
            assert len(ids) == len(set(ids))

    def test_variant_lookup(self):
        assert ICON.variant("cray-r1").patch_level == 0
        with pytest.raises(KeyError):
            ICON.variant("nope")

    def test_library_keys_drop_and_extend(self):
        variant = LAMMPS.variant("kokkos")
        keys = variant.library_keys(LAMMPS.base_library_keys)
        assert "numa" not in keys
        assert "rocm-torch" in keys and "numa-rocm-torch" in keys

    def test_unknown_copy_variant_is_exact_copy_of_known(self):
        unknown = ICON.variant("unknown-copy")
        assert unknown.copy_of == "cray-r1"
        assert unknown.filename == "a.out"
        assert unknown.subdir.startswith("/scratch/")

    def test_icon_has_most_variants(self):
        counts = {package.name: len(package.variants) for package in PACKAGES}
        assert counts["icon"] == max(counts.values())
        assert counts["GROMACS"] == 1

    def test_public_functions_nonempty(self):
        for package in PACKAGES:
            assert len(package.public_functions) >= 8


class TestSystemTools:
    def test_paper_top10_tools_present(self):
        for name in ("srun", "bash", "lua5.3", "rm", "cat", "uname", "ls", "mkdir",
                     "grep", "cp"):
            assert name in SYSTEM_TOOLS_BY_NAME

    def test_all_tools_live_in_system_directories(self):
        for tool in SYSTEM_TOOLS:
            assert is_system_path(f"{tool.directory}/{tool.name}")

    def test_library_keys_known(self):
        for tool in SYSTEM_TOOLS:
            for key in tool.library_keys:
                assert key in LIBRARY_BY_KEY

    def test_bash_links_tinfo(self):
        assert "libtinfo-default" in SYSTEM_TOOLS_BY_NAME["bash"].library_keys

    def test_static_tool_flagged(self):
        assert SYSTEM_TOOLS_BY_NAME["busybox"].static

    def test_reasonable_tool_count(self):
        assert len(SYSTEM_TOOLS) >= 50


class TestPythonEnvironment:
    def test_paper_interpreters(self):
        assert set(PYTHON_INTERPRETERS_BY_NAME) == {"python3.6", "python3.10", "python3.11"}

    def test_interpreters_in_system_directories(self):
        for interpreter in PYTHON_INTERPRETERS:
            assert is_system_path(interpreter.path)

    def test_figure3_vocabulary_size(self):
        assert len(PYTHON_PACKAGES) == 36
        for name in ("heapq", "struct", "mpi4py", "numpy", "pandas", "scipy", "zoneinfo",
                     "sha3", "blake2"):
            assert name in PYTHON_PACKAGES_BY_NAME

    def test_common_packages_subset(self):
        assert set(COMMON_PACKAGES) <= set(PYTHON_PACKAGES_BY_NAME)

    def test_extension_paths_stdlib_vs_site(self):
        heapq_path = PYTHON_PACKAGES_BY_NAME["heapq"].extension_path(
            PYTHON_INTERPRETERS_BY_NAME["python3.10"])
        numpy_path = PYTHON_PACKAGES_BY_NAME["numpy"].extension_path(
            PYTHON_INTERPRETERS_BY_NAME["python3.10"])
        assert "/lib-dynload/_heapq.cpython-310" in heapq_path
        assert "/site-packages/numpy/core/_multiarray_umath.cpython-310" in numpy_path

    def test_extension_paths_helper_skips_unknown(self):
        paths = extension_paths("python3.11", ["numpy", "not-a-package"])
        assert len(paths) == 1
        assert "311" in paths[0]

    def test_short_version(self):
        assert PYTHON_INTERPRETERS_BY_NAME["python3.6"].short_version == "3.6"
