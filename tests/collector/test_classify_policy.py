"""Tests for process classification and the Table 1 collection policy."""

from unittest import mock

import pytest

from repro.collector.classify import (
    SYSTEM_DIRECTORIES,
    ExecutableCategory,
    classify_executable,
    extract_script_path,
    is_python_interpreter,
    is_system_path,
)
from repro.collector.hooks import SirenCollector
from repro.collector.policy import TABLE_1, should_collect_rank
from repro.collector.records import InfoType, Layer
from repro.corpus.builder import CorpusBuilder
from repro.db.store import MessageStore
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.ingest import IncrementalConsolidator
from repro.transport.channel import InMemoryChannel
from repro.transport.sender import UDPSender

from oracles.consolidate import raw_messages


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


class TestClassification:
    @pytest.mark.parametrize("path", ["/usr/bin/bash", "/usr/bin/srun", "/bin/ls",
                                      "/opt/cray/pe/bin/cc"])
    def test_system(self, path):
        assert classify_executable(path) is ExecutableCategory.SYSTEM

    @pytest.mark.parametrize("path", ["/project/p/u/lammps/bin/lmp", "/users/alice/a.out",
                                      "/scratch/p/model.x", "/appl/local/tool/bin/x"])
    def test_user(self, path):
        assert classify_executable(path) is ExecutableCategory.USER

    @pytest.mark.parametrize("path", ["/usr/bin/python3.10", "/usr/bin/python3",
                                      "/usr/bin/python", "/opt/python/3.11.5/bin/python3.11"])
    def test_python_in_system_dir(self, path):
        assert classify_executable(path) is ExecutableCategory.PYTHON

    def test_python_in_user_dir_counts_as_user(self):
        """A user-installed interpreter (e.g. miniconda) is a USER executable."""
        assert classify_executable("/project/p/u/miniconda3/bin/python3.10") \
            is ExecutableCategory.USER

    def test_python_lookalike_not_interpreter(self):
        assert not is_python_interpreter("/usr/bin/python-config")
        assert not is_python_interpreter("/usr/bin/pythonista2")
        assert is_python_interpreter("/usr/bin/python3.6")


class TestExtractScriptPath:
    def test_simple_invocation(self):
        argv = ("/usr/bin/python3.10", "/users/a/run.py")
        assert extract_script_path(argv) == "/users/a/run.py"

    def test_skips_options(self):
        argv = ("/usr/bin/python3.10", "-u", "-X", "dev", "/users/a/run.py", "--arg")
        assert extract_script_path(argv) == "/users/a/run.py"

    def test_minus_c_has_no_script(self):
        assert extract_script_path(("/usr/bin/python3", "-c", "print(1)")) is None

    def test_module_invocation_has_no_script(self):
        assert extract_script_path(("/usr/bin/python3", "-m", "json.tool")) is None

    def test_no_arguments(self):
        assert extract_script_path(("/usr/bin/python3",)) is None


#: Table 1 of the paper: which scopes collect each row's information, and
#: the wire sections the row is sent as.
PAPER_TABLE_1 = [
    # (system, user, interpreter, script), sections
    ((1, 1, 1, 1), (InfoType.FILEMETA,)),
    ((1, 1, 1, 0), (InfoType.OBJECTS, InfoType.OBJECTS_H)),        # libraries
    ((0, 1, 0, 0), (InfoType.MODULES, InfoType.MODULES_H)),
    ((0, 1, 0, 0), (InfoType.COMPILERS, InfoType.COMPILERS_H)),
    ((0, 1, 1, 0), (InfoType.MAPS, InfoType.MAPS_H)),              # memory map
    ((0, 1, 0, 1), (InfoType.FILE_H,)),
    ((0, 1, 0, 0), (InfoType.STRINGS_H,)),
    ((0, 1, 0, 0), (InfoType.SYMBOLS_H,)),
]
SCOPES = (ExecutableCategory.SYSTEM, ExecutableCategory.USER, ExecutableCategory.PYTHON,
          Layer.SCRIPT)


class TestTable1:
    """``TABLE_1`` is Table 1 of the paper, row by row, in wire order."""

    @pytest.mark.parametrize("column, scope", enumerate(SCOPES), ids=str)
    def test_scope_sends_the_rows_it_collects(self, column, scope):
        assert TABLE_1[scope] == tuple(section for collected, sections in PAPER_TABLE_1
                                       if collected[column] for section in sections)

    def test_the_table_has_the_four_scopes(self):
        assert set(TABLE_1) == set(SCOPES)

    def test_rank_zero_only(self):
        assert should_collect_rank("0")
        assert should_collect_rank(0)
        assert not should_collect_rank("3")
        assert should_collect_rank("")      # outside a Slurm step
        assert should_collect_rank(None)


#: Table 1 with every process category collected like a user executable.
COLLECT_EVERYTHING = {category: TABLE_1[ExecutableCategory.USER]
                      for category in ExecutableCategory}


class TestTable1Ablation:
    """What the selective policy saves on the wire: one job of 75 system
    processes, sent under Table 1 and under a table that collects every
    category like a user executable."""

    @pytest.fixture(scope="class")
    def environment(self):
        cluster = Cluster()
        manifest = CorpusBuilder(cluster).install_base_system()
        cluster.add_user("bench")
        return cluster, manifest

    @staticmethod
    def _datagrams(environment, table) -> tuple[int, int]:
        """The job's datagrams under ``table``, and the raw rows ingest stored."""
        cluster, manifest = environment
        channel = InMemoryChannel()
        datagrams: list[bytes] = []
        channel.subscribe(datagrams.append)
        store = MessageStore()
        ingest = IncrementalConsolidator(store, persist_raw=True)
        ingest.attach(channel)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library)
        job = JobScript(name="system-heavy", modules=("siren",), steps=(StepSpec(processes=(
            ProcessSpec(executable=manifest.tool("bash"), count=10),
            ProcessSpec(executable=manifest.tool("mkdir"), count=30),
            ProcessSpec(executable=manifest.tool("rm"), count=30),
            ProcessSpec(executable=manifest.tool("cat"), count=5),
        )),))
        with mock.patch.object(cluster.runtime, "_hooks", []), \
                mock.patch.dict(TABLE_1, table):
            cluster.register_preload_hook(collector)
            cluster.run_job("bench", job)
        ingest.finalize()
        return len(datagrams), len(raw_messages(store))

    def test_the_selective_policy_sends_fewer_datagrams(self, environment):
        # Every process sends PROCINFO and PROCEND around its sections, each
        # in one datagram: 75 x (2 + 3) under Table 1, 75 x (2 + 12) when
        # every category is collected like a user executable.
        assert self._datagrams(environment, {}) == (375, 375)
        assert self._datagrams(environment, COLLECT_EVERYTHING) == (1050, 1050)
