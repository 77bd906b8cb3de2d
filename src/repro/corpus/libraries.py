"""Shared-library catalog of the simulated system.

Figure 2 and Figure 5 of the paper analyse "derived and filtered" shared
objects: each loaded library path is scanned for a fixed, ordered list of
informative substrings, and the matches, joined with ``-``, become the
library's tag (:func:`repro.analysis.libfilter.derive_library_tag`).

This module defines :data:`LIBRARY_CATALOG` -- every shared-library
*instance* installed on the simulated system (soname, directory,
dependencies), with install paths chosen so that the derived tags reproduce
the paper's tag vocabulary (``libsci-cray``, ``rocfft-rocm-fft``,
``hdf5-fortran-parallel-cray`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LibrarySpec:
    """One installed shared-library instance."""

    key: str                     #: catalog key used by packages and tests
    soname: str                  #: ``DT_SONAME`` / file name
    directory: str               #: install directory
    needed: tuple[str, ...] = ()  #: sonames this library itself depends on
    size: int = 2048             #: approximate ``.text`` payload size
    in_default_path: bool = True  #: whether ld.so finds it without modules

    @property
    def path(self) -> str:
        """Full installation path."""
        return f"{self.directory}/{self.soname}"


def _lib(key: str, soname: str, directory: str, needed: tuple[str, ...] = (),
         size: int = 2048, in_default_path: bool = True) -> LibrarySpec:
    return LibrarySpec(key=key, soname=soname, directory=directory, needed=needed,
                       size=size, in_default_path=in_default_path)


#: Every shared library the corpus installs.  Keys of tagged libraries equal
#: the derived tag the paper reports for them (checked by tests).
LIBRARY_CATALOG: tuple[LibrarySpec, ...] = (
    # -- untagged base system libraries (no informative substring) -------- #
    _lib("libc", "libc.so.6", "/lib64"),
    _lib("libm", "libm.so.6", "/lib64"),
    _lib("libdl", "libdl.so.2", "/lib64"),
    _lib("librt", "librt.so.1", "/lib64"),
    _lib("libstdc++", "libstdc++.so.6", "/lib64", needed=("libm.so.6", "libgcc_s.so.1")),
    _lib("libgcc_s", "libgcc_s.so.1", "/lib64"),
    _lib("ld-linux", "ld-linux-x86-64.so.2", "/lib64"),
    _lib("libz", "libz.so.1", "/lib64"),
    _lib("libtinfo-default", "libtinfo.so.6", "/lib64"),
    _lib("libreadline", "libreadline.so.8", "/lib64", needed=("libtinfo.so.6",)),
    _lib("liblua", "liblua5.3.so.5", "/usr/lib64", needed=("libm.so.6",)),
    _lib("libselinux", "libselinux.so.1", "/lib64"),
    _lib("libacl", "libacl.so.1", "/lib64"),
    _lib("libpcre", "libpcre2-8.so.0", "/lib64"),
    _lib("libcap", "libcap.so.2", "/lib64"),
    _lib("libcrypto", "libcrypto.so.3", "/usr/lib64"),
    _lib("libexpat", "libexpat.so.1", "/usr/lib64"),
    _lib("libffi", "libffi.so.7", "/usr/lib64"),
    _lib("libmunge", "libmunge.so.2", "/usr/lib64"),
    _lib("libslurm", "libslurm_full.so", "/usr/lib64/slurm", needed=("libmunge.so.2",)),

    # -- alternative libtinfo installs producing the Table 4 bash variants - #
    _lib("libtinfo-spack", "libtinfo.so.6",
         "/appl/spack/v0.21/views/ncurses/lib", in_default_path=False),
    _lib("libtinfo-sw", "libtinfo.so.6",
         "/project/project_465000100/SW/ncurses/lib",
         needed=("libm.so.6",), in_default_path=False),

    # -- generic tagged system libraries ---------------------------------- #
    _lib("pthread", "libpthread.so.0", "/lib64"),
    _lib("numa", "libnuma.so.1", "/usr/lib64"),
    _lib("drm", "libdrm.so.2", "/usr/lib64"),
    _lib("amdgpu-drm", "libdrm_amdgpu.so.1", "/usr/lib64", needed=("libdrm.so.2",)),
    _lib("fortran", "libgfortran.so.5", "/usr/lib64", needed=("libm.so.6",)),
    _lib("python", "libpython3.so", "/usr/lib64"),
    _lib("yaml", "libyaml-0.so.2", "/usr/lib64"),

    # -- Cray programming environment -------------------------------------- #
    _lib("cray", "libmpi_cray.so.12", "/opt/cray/pe/mpich/8.1/lib",
         needed=("libfabric.so.1", "libpmi.so.0", "libpthread.so.0")),
    _lib("libsci-cray", "libsci_cray.so.6", "/opt/cray/pe/libsci/23.12/lib",
         needed=("libpthread.so.0",)),
    _lib("quadmath-cray", "libquadmath.so.0", "/opt/cray/pe/gcc-native/12/lib64"),
    _lib("craymath-cray", "libcraymath.so.1", "/opt/cray/pe/cce/17.0/lib"),
    _lib("fabric-cray", "libfabric.so.1", "/opt/cray/libfabric/1.15/lib64"),
    _lib("pmi-cray", "libpmi.so.0", "/opt/cray/pe/pmi/6.1/lib"),
    _lib("fft-cray", "libfftw3.so.3", "/opt/cray/pe/fftw/3.3/lib"),
    _lib("netcdf-cray", "libnetcdf.so.19", "/opt/cray/pe/netcdf/4.9/lib",
         needed=("libhdf5.so.310",)),
    _lib("netcdf-parallel-cray", "libnetcdf_parallel.so.19",
         "/opt/cray/pe/netcdf-parallel/4.9/lib", needed=("libhdf5_parallel.so.310",)),
    _lib("hdf5-cray", "libhdf5.so.310", "/opt/cray/pe/hdf5/1.12/lib"),
    _lib("hdf5-parallel-cray", "libhdf5_parallel.so.310", "/opt/cray/pe/hdf5-parallel/1.12/lib"),
    _lib("hdf5-fortran-parallel-cray", "libhdf5_fortran_parallel.so.310",
         "/opt/cray/pe/hdf5-parallel/1.12/lib", needed=("libgfortran.so.5",)),
    _lib("openacc-cray", "libopenacc.so.1", "/opt/cray/pe/cce/17.0/lib"),
    _lib("amdgpu-cray", "libamdgpu_target.so.1", "/opt/cray/pe/cce/17.0/lib"),

    # -- ROCm stack --------------------------------------------------------- #
    _lib("rocm", "libamdhip64.so.6", "/opt/rocm-6.0.3/lib"),
    _lib("rocm-blas", "librocblas.so.4", "/opt/rocm-6.0.3/lib",
         needed=("libamdhip64.so.6",)),
    _lib("rocsolver-rocm", "librocsolver.so.0", "/opt/rocm-6.0.3/lib",
         needed=("librocblas.so.4",)),
    _lib("rocsparse-rocm", "librocsparse.so.1", "/opt/rocm-6.0.3/lib",
         needed=("libamdhip64.so.6",)),
    _lib("rocm-fft", "libhipfft.so.0", "/opt/rocm-6.0.3/lib",
         needed=("librocfft.so.0",)),
    _lib("rocfft-rocm-fft", "librocfft.so.0", "/opt/rocm-6.0.3/lib",
         needed=("libamdhip64.so.6",)),
    _lib("MIOpen-rocm", "libMIOpen.so.1", "/opt/rocm-6.0.3/lib",
         needed=("libamdhip64.so.6",)),

    # -- application / stack specific libraries ----------------------------- #
    _lib("gromacs", "libgromacs_mpi.so.8", "/project/project_465000200/gromacs/2024.1/lib",
         needed=("libpthread.so.0",), in_default_path=False),
    _lib("boost", "libboost_serialization.so.1.82", "/appl/lumi/boost/1.82/lib",
         in_default_path=False),
    _lib("climatedt", "libclimatedt.so.2", "/project/project_465000300/climatedt/lib",
         in_default_path=False),
    _lib("climatedt-yaml", "libclimatedt_yaml.so.2", "/project/project_465000300/climatedt/lib",
         needed=("libyaml-0.so.2",), in_default_path=False),
    _lib("amber", "libamber_common.so.22", "/project/project_465000400/amber22/lib",
         in_default_path=False),
    _lib("cuda-amber", "libcuda_stub.so.1", "/project/project_465000400/amber22/cuda/lib",
         in_default_path=False),
    _lib("rocm-torch", "libtorch_hip.so.2", "/appl/pytorch-rocm/2.2/lib",
         needed=("libamdhip64.so.6",), in_default_path=False),
    _lib("numa-rocm-torch", "libnuma.so.1", "/appl/pytorch-rocm/2.2/torch/numa/lib",
         in_default_path=False),
    _lib("torch-tykky", "libtorch_cpu.so.2", "/appl/local/tykky/pytorch-env/torch/lib",
         in_default_path=False),
    _lib("numa-torch-tykky", "libnuma.so.1", "/appl/local/tykky/pytorch-env/torch/numa/lib",
         in_default_path=False),

    # -- spack installations ------------------------------------------------- #
    _lib("spack", "libzstd.so.1", "/appl/spack/v0.21/opt/zstd-1.5.5/lib",
         in_default_path=False),
    _lib("blas-spack", "libopenblas.so.0", "/appl/spack/v0.21/opt/openblas-0.3.24/lib",
         needed=("libpthread.so.0",), in_default_path=False),
    _lib("rocsolver-spack", "librocsolver.so.0", "/appl/spack/v0.21/opt/rocsolver-5.7/lib",
         in_default_path=False),
    _lib("rocsparse-spack", "librocsparse.so.1", "/appl/spack/v0.21/opt/rocsparse-5.7/lib",
         in_default_path=False),
    _lib("drm-spack", "libdrm.so.2", "/appl/spack/v0.21/opt/libdrm-2.4/lib",
         in_default_path=False),
    _lib("amdgpu-drm-spack", "libdrm_amdgpu.so.1", "/appl/spack/v0.21/opt/libdrm-2.4/lib",
         needed=("libdrm.so.2",), in_default_path=False),
    _lib("numa-spack", "libnuma.so.1", "/appl/spack/v0.21/opt/numactl-2.0.16/lib",
         in_default_path=False),

    # -- the SIREN collection library itself --------------------------------- #
    _lib("siren", "siren.so", "/appl/local/siren/lib", in_default_path=False),
)

#: Index by catalog key.
LIBRARY_BY_KEY: dict[str, LibrarySpec] = {spec.key: spec for spec in LIBRARY_CATALOG}


def library_path(key: str) -> str:
    """Full install path of the library with the given catalog key."""
    return LIBRARY_BY_KEY[key].path


