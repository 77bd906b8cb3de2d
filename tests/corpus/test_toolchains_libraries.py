"""Tests for toolchain definitions and the library-tag derivation."""

import pytest

from repro.corpus.libraries import (
    LIBRARY_BY_KEY,
    LIBRARY_CATALOG,
    LIBRARY_SUBSTRINGS,
    derive_library_tag,
    library_path,
)
from repro.corpus.toolchains import (
    TOOLCHAIN_ORDER,
    TOOLCHAINS,
    comments_for,
    compiler_labels,
    provenance_label,
)


class TestToolchains:
    def test_all_eight_paper_toolchains_present(self):
        assert set(TOOLCHAIN_ORDER) == set(TOOLCHAINS)
        assert len(TOOLCHAINS) == 8

    def test_comments_round_trip_to_labels(self):
        for label, toolchain in TOOLCHAINS.items():
            assert provenance_label(toolchain.comment) == label

    def test_comments_for(self):
        comments = comments_for(["GCC [SUSE]", "clang [Cray]"])
        assert comments[0].startswith("GCC: (SUSE")
        assert "Cray" in comments[1]

    def test_unknown_gcc_flavour_still_grouped(self):
        assert provenance_label("GCC: (Debian 12.2.0-14) 12.2.0").startswith("GCC")

    def test_unknown_clang_vendor(self):
        assert provenance_label("clang version 16.0.0 (AMD ROCm)") == "clang [AMD]"
        assert provenance_label("clang version 16.0.0") == "clang"

    def test_novel_toolchain_reported_by_leading_token(self):
        assert provenance_label("ifx (IFORT) 2024.0") == "ifx"

    def test_compiler_labels_deduplicate_in_order(self):
        comments = [TOOLCHAINS["GCC [SUSE]"].comment, TOOLCHAINS["clang [Cray]"].comment,
                    TOOLCHAINS["GCC [SUSE]"].comment]
        assert compiler_labels(comments) == ["GCC [SUSE]", "clang [Cray]"]


class TestLibraryTagDerivation:
    @pytest.mark.parametrize(
        "path, expected",
        [
            ("/lib64/libpthread.so.0", "pthread"),
            ("/opt/cray/pe/libsci/23.12/lib/libsci_cray.so.6", "libsci-cray"),
            ("/opt/rocm-6.0.3/lib/librocfft.so.0", "rocfft-rocm-fft"),
            ("/opt/rocm-6.0.3/lib/librocblas.so.4", "rocm-blas"),
            ("/opt/rocm-6.0.3/lib/libMIOpen.so.1", "MIOpen-rocm"),
            ("/opt/cray/pe/hdf5-parallel/1.12/lib/libhdf5_fortran_parallel.so.310",
             "hdf5-fortran-parallel-cray"),
            ("/usr/lib64/libdrm_amdgpu.so.1", "amdgpu-drm"),
            ("/appl/local/siren/lib/siren.so", "siren"),
            ("/project/project_465000300/climatedt/lib/libclimatedt_yaml.so.2",
             "climatedt-yaml"),
            ("/appl/spack/v0.21/opt/openblas-0.3.24/lib/libopenblas.so.0", "blas-spack"),
            ("/lib64/libc.so.6", None),
            ("/lib64/libtinfo.so.6", None),
        ],
    )
    def test_known_paths(self, path, expected):
        assert derive_library_tag(path) == expected

    def test_tag_order_follows_substring_catalog(self):
        tag = derive_library_tag("/opt/rocm/lib/librocfft.so")
        parts = tag.split("-")
        indices = [LIBRARY_SUBSTRINGS.index(part) for part in parts]
        assert indices == sorted(indices)

    def test_substring_list_matches_paper(self):
        assert LIBRARY_SUBSTRINGS[0] == "libsci"
        assert LIBRARY_SUBSTRINGS[-1] == "siren"
        assert "MIOpen" in LIBRARY_SUBSTRINGS
        assert len(LIBRARY_SUBSTRINGS) == 34


class TestLibraryCatalog:
    def test_keys_unique(self):
        keys = [spec.key for spec in LIBRARY_CATALOG]
        assert len(keys) == len(set(keys))

    def test_paths_unique(self):
        paths = [spec.path for spec in LIBRARY_CATALOG]
        assert len(paths) == len(set(paths))

    def test_tagged_keys_match_their_derived_tag(self):
        """Catalog keys of tagged libraries equal the tag their path derives to."""
        untagged_ok = {"libc", "libm", "libdl", "librt", "libstdc++", "libgcc_s", "ld-linux",
                       "libz", "libtinfo-default", "libtinfo-spack", "libtinfo-sw",
                       "libreadline", "liblua", "libselinux", "libacl", "libpcre", "libcap",
                       "libcrypto", "libexpat", "libffi", "libmunge", "libslurm"}
        for spec in LIBRARY_CATALOG:
            tag = derive_library_tag(spec.path)
            if spec.key in untagged_ok:
                continue
            assert tag == spec.key, f"{spec.key} derives to {tag}"

    def test_paper_tag_vocabulary_covered(self):
        """Every tag appearing in Figure 2 / Figure 5 is producible by the catalog."""
        figure_tags = {
            "siren", "pthread", "cray", "quadmath-cray", "fabric-cray", "pmi-cray", "rocm",
            "numa", "drm", "amdgpu-drm", "fortran", "libsci-cray", "rocm-blas",
            "rocsolver-rocm", "rocsparse-rocm", "fft-cray", "rocm-fft", "rocfft-rocm-fft",
            "craymath-cray", "MIOpen-rocm", "gromacs", "boost", "netcdf-cray", "amdgpu-cray",
            "openacc-cray", "rocm-torch", "numa-rocm-torch", "numa-spack", "spack",
            "blas-spack", "rocsolver-spack", "rocsparse-spack", "drm-spack",
            "amdgpu-drm-spack", "climatedt", "climatedt-yaml", "hdf5-cray", "cuda-amber",
            "amber", "netcdf-parallel-cray", "hdf5-parallel-cray",
            "hdf5-fortran-parallel-cray", "torch-tykky", "numa-torch-tykky",
        }
        derived = {derive_library_tag(spec.path) for spec in LIBRARY_CATALOG}
        missing = figure_tags - derived
        assert not missing, f"missing tags: {missing}"

    def test_needed_sonames_exist_in_catalog(self):
        sonames = {spec.soname for spec in LIBRARY_CATALOG}
        for spec in LIBRARY_CATALOG:
            for needed in spec.needed:
                assert needed in sonames, f"{spec.key} needs unknown {needed}"

    def test_lookup_helpers(self):
        assert library_path("pthread") == "/lib64/libpthread.so.0"
        assert LIBRARY_BY_KEY["siren"].soname == "siren.so"

    def test_bash_variant_instances_exist(self):
        """Three libtinfo installs drive the Table 4 bash variants."""
        tinfo = [spec for spec in LIBRARY_CATALOG if spec.soname == "libtinfo.so.6"]
        assert len(tinfo) == 3
        assert any(spec.needed == ("libm.so.6",) for spec in tinfo)
