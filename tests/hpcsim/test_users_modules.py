"""Tests for the user registry and the module system."""

import pytest

from repro.hpcsim.modules import Module, ModuleSystem
from repro.hpcsim.users import UserRegistry
from repro.util.errors import SimulationError


class TestUserRegistry:
    def test_add_and_get(self):
        registry = UserRegistry()
        user = registry.add("alice")
        assert registry.get("alice") == user
        assert user.uid == registry.first_uid

    def test_idempotent_add(self):
        registry = UserRegistry()
        assert registry.add("alice") is registry.add("alice")
        assert len(registry) == 1

    def test_uids_increment(self):
        registry = UserRegistry()
        a = registry.add("a")
        b = registry.add("b")
        assert b.uid == a.uid + 1

    def test_unknown_user_raises(self):
        with pytest.raises(SimulationError):
            UserRegistry().get("nobody")

    def test_directories(self):
        user = UserRegistry().add("alice", project="project_123")
        assert user.home == "/users/alice"

    def test_anonymize_order(self):
        registry = UserRegistry()
        first = registry.add("zeta")
        second = registry.add("alpha")
        mapping = registry.anonymize()
        assert mapping[first.uid] == "user_1"
        assert mapping[second.uid] == "user_2"

    def test_contains(self):
        registry = UserRegistry()
        registry.add("alice")
        assert "alice" in registry and "bob" not in registry


class TestModuleSystem:
    def _system(self) -> ModuleSystem:
        system = ModuleSystem()
        system.register(Module(name="cce", version="17.0.1"))
        system.register(Module(name="PrgEnv-cray", version="8.5.0", requires=("cce",)))
        system.register(Module(name="rocm", version="6.0.3",
                               library_paths=("/opt/rocm-6.0.3/lib",)))
        system.register(Module(name="siren", version="0.1",
                               ld_preload=("/appl/local/siren/lib/siren.so",),
                               library_paths=("/appl/local/siren/lib",)))
        return system

    def test_loadedmodules_variable(self):
        env = self._system().load(["cce"])
        assert env["LOADEDMODULES"] == "cce/17.0.1"

    def test_dependencies_loaded_first(self):
        env = self._system().load(["PrgEnv-cray"])
        assert env["LOADEDMODULES"].split(":") == ["cce/17.0.1", "PrgEnv-cray/8.5.0"]

    def test_library_path_prepended(self):
        system = self._system()
        env = system.load(["rocm"], {"LD_LIBRARY_PATH": "/existing"})
        assert env["LD_LIBRARY_PATH"].split(":") == ["/opt/rocm-6.0.3/lib", "/existing"]

    def test_ld_preload_set(self):
        env = self._system().load(["siren"])
        assert env["LD_PRELOAD"] == "/appl/local/siren/lib/siren.so"

    def test_no_duplicate_loads(self):
        system = self._system()
        env = system.load(["cce"])
        env = system.load(["cce", "PrgEnv-cray"], env)
        assert env["LOADEDMODULES"].split(":").count("cce/17.0.1") == 1

    def test_full_name_lookup(self):
        assert self._system().get("cce/17.0.1").name == "cce"

    def test_unknown_module_raises(self):
        with pytest.raises(SimulationError):
            self._system().load(["does-not-exist"])

    def test_cycle_detection(self):
        system = ModuleSystem()
        system.register(Module(name="a", requires=("b",)))
        system.register(Module(name="b", requires=("a",)))
        with pytest.raises(SimulationError):
            system.load(["a"])

    def test_available_sorted(self):
        names = self._system().available()
        assert names == sorted(names)
        assert "siren/0.1" in names

    def test_original_environment_not_mutated(self):
        base = {"LOADEDMODULES": ""}
        self._system().load(["cce"], base)
        assert base == {"LOADEDMODULES": ""}
