"""Tests for the corpus's toolchain definitions and library catalog.

The catalog's paths are placed so that SIREN's tag rule
(:func:`repro.analysis.libfilter.derive_library_tag`) derives the paper's
tags from them; the rule itself is tested beside it, in ``tests/analysis/``.
"""

from repro.analysis.libfilter import derive_library_tag
from repro.corpus.libraries import LIBRARY_BY_KEY, LIBRARY_CATALOG, library_path
from repro.corpus.toolchains import TOOLCHAIN_ORDER, TOOLCHAINS, comments_for


class TestToolchains:
    def test_all_eight_paper_toolchains_present(self):
        assert set(TOOLCHAIN_ORDER) == set(TOOLCHAINS)
        assert len(TOOLCHAINS) == 8

    def test_comments_for(self):
        comments = comments_for(["GCC [SUSE]", "clang [Cray]"])
        assert comments[0].startswith("GCC: (SUSE")
        assert "Cray" in comments[1]


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
