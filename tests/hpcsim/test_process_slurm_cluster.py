"""Tests for the process runtime, the Slurm scheduler and the cluster facade."""

import pytest

from repro.elf.builder import ELFBuilder
from repro.elf.constants import ET_DYN, ET_EXEC
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.dynlinker import DynamicLinker
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.process import ProcessRuntime
from repro.hpcsim.slurm import JobScript, ProcessSpec, SlurmJob, SlurmScheduler, StepSpec
from repro.util.errors import SimulationError


def _library(soname: str) -> bytes:
    return ELFBuilder(file_type=ET_DYN, soname=soname).set_text_from_source(soname, size=128).build()


def _executable(needed: list[str]) -> bytes:
    builder = ELFBuilder(file_type=ET_EXEC).set_text_from_source("exe", size=128)
    builder.add_needed_many(needed)
    return builder.build()


class RecordingHook:
    """Minimal PreloadHook capturing the contexts it sees."""

    def __init__(self, library_path: str, fail: bool = False) -> None:
        self.library_path = library_path
        self.started: list = []
        self.ended: list = []
        self.fail = fail

    def on_process_start(self, context) -> None:
        if self.fail:
            raise RuntimeError("collector bug")
        self.started.append(context)

    def on_process_end(self, context) -> None:
        if self.fail:
            raise RuntimeError("collector bug")
        self.ended.append(context)


@pytest.fixture()
def runtime_env():
    fs = VirtualFilesystem()
    fs.add_file("/lib64/libc.so.6", _library("libc.so.6"), executable=True)
    fs.add_file("/appl/siren/siren.so", _library("siren.so"), executable=True)
    fs.add_file("/usr/bin/tool", _executable(["libc.so.6"]), executable=True)
    runtime = ProcessRuntime(fs, DynamicLinker(fs))
    return fs, runtime


class TestProcessRuntime:
    def test_run_process_populates_context(self, runtime_env):
        fs, runtime = runtime_env
        context = runtime.run_process(
            executable="/usr/bin/tool", environment={"SLURM_JOB_ID": "1", "SLURM_PROCID": "0"},
            uid=10, gid=10, hostname="nid000001", duration=5,
        )
        assert context.pid >= 1000
        assert context.executable == "/usr/bin/tool"
        assert context.slurm_job_id == "1"
        assert context.end_time == context.start_time + 5
        assert "/lib64/libc.so.6" in context.loaded_objects
        assert "/usr/bin/tool" in context.maps_text()

    def test_pids_increment(self, runtime_env):
        _, runtime = runtime_env
        pids = {runtime.allocate_pid() for _ in range(10)}
        assert len(pids) == 10

    def test_hook_invoked_only_when_preloaded(self, runtime_env):
        fs, runtime = runtime_env
        hook = RecordingHook("/appl/siren/siren.so")
        runtime.register_hook(hook)
        runtime.run_process(executable="/usr/bin/tool", environment={},
                            uid=1, gid=1, hostname="n1")
        assert hook.started == []
        runtime.run_process(executable="/usr/bin/tool",
                            environment={"LD_PRELOAD": "/appl/siren/siren.so"},
                            uid=1, gid=1, hostname="n1")
        assert len(hook.started) == 1 and len(hook.ended) == 1

    def test_hook_failure_does_not_break_process(self, runtime_env):
        fs, runtime = runtime_env
        runtime.register_hook(RecordingHook("/appl/siren/siren.so", fail=True))
        context = runtime.run_process(
            executable="/usr/bin/tool",
            environment={"LD_PRELOAD": "/appl/siren/siren.so"},
            uid=1, gid=1, hostname="n1",
        )
        assert context.exit_code == 0
        assert runtime.hook_failures == 2  # constructor + destructor

    def test_duplicate_hook_registration_rejected(self, runtime_env):
        _, runtime = runtime_env
        runtime.register_hook(RecordingHook("/appl/siren/siren.so"))
        with pytest.raises(SimulationError):
            runtime.register_hook(RecordingHook("/appl/siren/siren.so"))

    def test_missing_executable_raises(self, runtime_env):
        _, runtime = runtime_env
        with pytest.raises(SimulationError):
            runtime.run_process(executable="/usr/bin/missing", environment={},
                                uid=1, gid=1, hostname="n1")


class TestSlurmSpecs:
    def test_process_spec_validation(self):
        with pytest.raises(SimulationError):
            ProcessSpec(executable="/x", ranks=0)
        with pytest.raises(SimulationError):
            ProcessSpec(executable="/x", count=0)

    def test_total_processes(self):
        spec = ProcessSpec(executable="/x", ranks=4, count=3)
        assert spec.total_processes == 12
        step = StepSpec(processes=(spec, ProcessSpec(executable="/y")))
        assert step.total_processes == 13
        script = JobScript(name="j", steps=(step,))
        assert script.total_processes == 13


class TestSlurmScheduler:
    def test_job_ids_increment(self):
        scheduler = SlurmScheduler()
        a = scheduler.allocate_job("alice", "job-a", 0)
        b = scheduler.allocate_job("alice", "job-b", 0)
        assert b.job_id == a.job_id + 1
        assert scheduler.job_count == 2

    def test_nodes_round_robin(self):
        scheduler = SlurmScheduler(nodes=("n1", "n2"))
        nodes = [scheduler.allocate_job("a", "j", 0).node for _ in range(4)]
        assert nodes == ["n1", "n2", "n1", "n2"]

    def test_needs_nodes(self):
        with pytest.raises(SimulationError):
            SlurmScheduler(nodes=())

    def test_process_environment(self):
        scheduler = SlurmScheduler()
        job = scheduler.allocate_job("alice", "climate", 100)
        env = scheduler.process_environment(job, 2, 7, {"HOME": "/users/alice"})
        assert env["SLURM_JOB_ID"] == str(job.job_id)
        assert env["SLURM_STEP_ID"] == "2"
        assert env["SLURM_PROCID"] == "7"
        assert env["HOSTNAME"] == job.node
        assert env["HOME"] == "/users/alice"


class TestCluster:
    def _cluster(self) -> Cluster:
        cluster = Cluster()
        cluster.filesystem.add_file("/lib64/libc.so.6", _library("libc.so.6"), executable=True)
        cluster.filesystem.add_file("/appl/siren/siren.so", _library("siren.so"), executable=True)
        cluster.filesystem.add_file("/usr/bin/tool", _executable(["libc.so.6"]), executable=True)
        cluster.add_user("alice")
        return cluster

    def test_run_job_counts(self):
        cluster = self._cluster()
        script = JobScript(name="test", steps=(
            StepSpec(processes=(ProcessSpec(executable="/usr/bin/tool", count=3),)),
            StepSpec(processes=(ProcessSpec(executable="/usr/bin/tool", ranks=2),)),
        ))
        contexts, run_process = [], cluster.runtime.run_process   # run_job reads no context
        cluster.runtime.run_process = lambda **launch: contexts.append(run_process(**launch))
        job = cluster.run_job("alice", script)
        assert job.process_count == 5
        assert len(contexts) == 5
        assert cluster.processes_run == 5
        assert job.step_count == 2

    def test_contexts_not_kept_by_default(self):
        cluster = self._cluster()
        script = JobScript(name="t", steps=(StepSpec(processes=(
            ProcessSpec(executable="/usr/bin/tool"),)),))
        assert isinstance(cluster.run_job("alice", script), SlurmJob)

    def test_unknown_user_raises(self):
        cluster = self._cluster()
        with pytest.raises(SimulationError):
            cluster.run_job("mallory", JobScript(name="x"))

    def test_hook_requires_library_on_filesystem(self):
        cluster = self._cluster()
        with pytest.raises(SimulationError):
            cluster.register_preload_hook(RecordingHook("/nonexistent/siren.so"))

    def test_step_ranks_get_distinct_procids(self):
        cluster = self._cluster()
        cluster.register_preload_hook(RecordingHook("/appl/siren/siren.so"))
        script = JobScript(name="mpi", environment=(("LD_PRELOAD", "/appl/siren/siren.so"),),
                           steps=(StepSpec(processes=(
                               ProcessSpec(executable="/usr/bin/tool", ranks=3),)),))
        contexts, run_process = [], cluster.runtime.run_process
        cluster.runtime.run_process = lambda **launch: contexts.append(run_process(**launch))
        cluster.run_job("alice", script)
        assert sorted(c.slurm_procid for c in contexts) == ["0", "1", "2"]
