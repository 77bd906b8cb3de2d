"""Tests for the corpus builder (materialising the synthetic system)."""

import pytest

from repro.corpus.builder import SIREN_LIBRARY_PATH, CorpusBuilder
from repro.corpus.libraries import LIBRARY_CATALOG
from repro.corpus.packages import GROMACS, ICON, LAMMPS, PACKAGES
from repro.corpus.python_env import PYTHON_INTERPRETERS, PYTHON_PACKAGES
from repro.corpus.system_tools import SYSTEM_TOOLS
from repro.elf.reader import ELFFile
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import CorpusError

_HASHER = FuzzyHasher()


class TestBaseSystemInstall:
    def test_all_libraries_installed(self, base_cluster):
        cluster, manifest = base_cluster
        for spec in LIBRARY_CATALOG:
            assert cluster.filesystem.exists(spec.path)
        assert set(manifest.library_paths) == {spec.key for spec in LIBRARY_CATALOG}

    def test_all_system_tools_installed(self, base_cluster):
        cluster, manifest = base_cluster
        assert len(manifest.system_tools) == len({tool.name for tool in SYSTEM_TOOLS})
        for path in manifest.system_tools.values():
            assert cluster.filesystem.get(path).executable

    def test_python_interpreters_and_extensions(self, base_cluster):
        cluster, manifest = base_cluster
        assert len(manifest.python_interpreters) == len(PYTHON_INTERPRETERS)
        interpreter = PYTHON_INTERPRETERS[0]
        for package in PYTHON_PACKAGES:
            assert cluster.filesystem.exists(package.extension_path(interpreter))

    def test_siren_library_installed_and_module_registered(self, base_cluster):
        cluster, manifest = base_cluster
        assert cluster.filesystem.exists(SIREN_LIBRARY_PATH)
        env = cluster.modules.load(["siren"])
        assert env["LD_PRELOAD"] == SIREN_LIBRARY_PATH

    def test_stack_modules_for_non_default_libraries(self, base_cluster):
        cluster, manifest = base_cluster
        assert "gromacs" in manifest.stack_modules
        env = cluster.modules.load(["gromacs"])
        assert "/gromacs/2024.1/lib" in env["LD_LIBRARY_PATH"]

    def test_default_search_path_extended_with_cray_dirs(self, base_cluster):
        cluster, _ = base_cluster
        assert any("cray" in directory for directory in cluster.linker.default_paths)

    def test_system_library_images_parse(self, base_cluster):
        cluster, _ = base_cluster
        elf = ELFFile(cluster.filesystem.read("/opt/cray/pe/mpich/8.1/lib/libmpi_cray.so.12"))
        assert elf.soname() == "libmpi_cray.so.12"
        assert "libfabric.so.1" in elf.needed_libraries()

    def test_bash_image_needs_tinfo(self, base_cluster):
        cluster, manifest = base_cluster
        elf = ELFFile(cluster.filesystem.read(manifest.tool("bash")))
        assert "libtinfo.so.6" in elf.needed_libraries()

    def test_static_tool_has_no_dynamic_section(self, base_cluster):
        cluster, manifest = base_cluster
        elf = ELFFile(cluster.filesystem.read(manifest.tool("busybox")))
        assert not elf.is_dynamically_linked

    def test_missing_tool_lookup_raises(self, base_cluster):
        _, manifest = base_cluster
        with pytest.raises(CorpusError):
            manifest.tool("notatool")
        with pytest.raises(CorpusError):
            manifest.interpreter("python2.7")


class TestPackageInstall:
    def test_variant_paths_and_ownership(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        assert icon.path.startswith("/project/")
        assert icon.owner == "alice"
        vfile = cluster.filesystem.get(icon.path)
        assert vfile.executable and vfile.metadata.uid != 0

    def test_shared_install_has_no_owner(self):
        from repro.hpcsim.cluster import Cluster

        cluster = Cluster()
        builder = CorpusBuilder(cluster)
        builder.install_base_system()
        user = cluster.add_user("bob")
        record = builder.install_variant(GROMACS, GROMACS.variants[0], user)
        assert record.owner == ""
        assert record.path.startswith("/appl/")
        # Reinstalling for another user returns the same record, not a duplicate.
        other = cluster.add_user("carol")
        again = builder.install_variant(GROMACS, GROMACS.variants[0], other)
        assert again is record

    def test_image_contains_compilers_symbols_needed(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        elf = ELFFile(cluster.filesystem.read(icon.path))
        comments = elf.comment_strings()
        assert any("SUSE" in comment for comment in comments)
        assert any("Cray" in comment for comment in comments)
        assert "icon_run_timeloop" in {symbol.name for symbol in elf.global_symbols()}
        assert "libclimatedt.so.2" in elf.needed_libraries()

    def test_unknown_copy_is_byte_identical(self, app_cluster):
        cluster, manifest = app_cluster
        original = manifest.find_executable("icon", "cray-r1", "alice")
        copy = manifest.find_executable("icon", "unknown-copy", "alice")
        assert copy.path != original.path
        assert copy.filename == "a.out"
        assert cluster.filesystem.read(copy.path) == cluster.filesystem.read(original.path)

    def test_patch_level_drives_similarity_decay(self, app_cluster):
        cluster, manifest = app_cluster
        base = _HASHER.hash(cluster.filesystem.read(
            manifest.find_executable("icon", "cray-r1", "alice").path))
        near = _HASHER.hash(cluster.filesystem.read(
            manifest.find_executable("icon", "cray-r2", "alice").path))
        far = _HASHER.hash(cluster.filesystem.read(
            manifest.find_executable("icon", "pre-proc", "alice").path))
        assert _HASHER.compare(base, near) > _HASHER.compare(base, far)
        assert _HASHER.compare(base, near) < 100

    def test_required_modules_cover_non_default_keys(self, app_cluster):
        _, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        assert "climatedt" in icon.required_modules

    def test_executables_for_filters_by_owner(self, app_cluster):
        _, manifest = app_cluster
        assert manifest.executables_for("icon", "alice")
        assert manifest.executables_for("icon", "nobody") == []

    def test_find_missing_variant_raises(self, app_cluster):
        _, manifest = app_cluster
        with pytest.raises(CorpusError):
            manifest.find_executable("icon", "does-not-exist")

    def test_install_all_packages_smoke(self):
        from repro.hpcsim.cluster import Cluster

        cluster = Cluster()
        builder = CorpusBuilder(cluster)
        builder.install_base_system()
        user = cluster.add_user("dave")
        for package in PACKAGES:
            records = builder.install_package(package, user)
            assert len(records) == len(package.variants)
