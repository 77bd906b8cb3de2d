"""End-to-end integration tests built from the public API (no campaign fixture)."""

from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import ICON, LAMMPS
from repro.corpus.python_env import extension_paths
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.ingest import IncrementalConsolidator
from repro.transport.channel import SocketChannel
from repro.transport.sender import UDPSender
from repro.collector.hooks import SirenCollector
from repro.db.store import MessageStore

from oracles.consolidate import consolidate_store


def _standard_setup():
    cluster = Cluster()
    corpus = CorpusBuilder(cluster)
    manifest = corpus.install_base_system()
    user = cluster.add_user("erin")
    corpus.install_package(ICON, user)
    corpus.install_package(LAMMPS, user)
    return cluster, manifest, user


class TestQuickstartFlow:
    """The README quickstart flow: deploy, run a job, consolidate, analyse."""

    def test_full_flow(self):
        cluster, manifest, user = _standard_setup()
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)

        icon = manifest.find_executable("icon", "cray-r1", "erin")
        unknown = manifest.find_executable("icon", "unknown-copy", "erin")
        script = JobScript(
            name="climate-run",
            modules=("siren", "PrgEnv-cray", "cray-netcdf", *icon.required_modules),
            steps=(StepSpec(processes=(
                ProcessSpec(executable=manifest.tool("bash"), count=3),
                ProcessSpec(executable=manifest.tool("srun")),
                ProcessSpec(executable=icon.path, ranks=4),
                ProcessSpec(executable=unknown.path, ranks=2),
            )),),
        )
        cluster.run_job("erin", script)
        records = framework.consolidate()
        pipeline = AnalysisPipeline(records, cluster.users.anonymize())

        labels = {row.label for row in pipeline.table5_user_applications()}
        assert labels == {"icon", "UNKNOWN"}
        searches = pipeline.table7_similarity_search(top=3)
        assert all(results[0].label == "icon" for results in searches.values())
        assert pipeline.table3_system_executables()

    def test_python_workflow(self):
        cluster, manifest, user = _standard_setup()
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)

        script_path = f"{user.home}/scripts/postproc.py"
        cluster.filesystem.add_file(script_path, b"import numpy\nimport pandas\n")
        interpreter = manifest.interpreter("python3.11")
        packages = ["heapq", "struct", "numpy", "pandas"]
        job = JobScript(name="py", modules=("siren",), steps=(StepSpec(processes=(
            ProcessSpec(executable=interpreter, argv=(interpreter, script_path),
                        python_script=script_path,
                        imported_packages=tuple(packages),
                        mapped_files=tuple(extension_paths("python3.11", packages))),)),))
        cluster.run_job("erin", job)

        records = framework.consolidate()
        pipeline = AnalysisPipeline(records, cluster.users.anonymize())
        table8 = pipeline.table8_python_interpreters()
        assert table8[0].interpreter == "python3.11"
        assert table8[0].unique_script_h == 1
        figure3 = {row.package for row in pipeline.figure3_python_packages()}
        assert {"heapq", "numpy", "pandas"} <= figure3


class TestRealSocketDeployment:
    """The same collector runs over genuine UDP loopback sockets."""

    def test_socket_transport_end_to_end(self):
        cluster, manifest, user = _standard_setup()
        store = MessageStore()
        with SocketChannel() as channel:
            ingest = IncrementalConsolidator(store, persist_raw=True)
            ingest.attach(channel)
            collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                       manifest.siren_library)
            cluster.register_preload_hook(collector)
            icon = manifest.find_executable("icon", "cray-r1", "erin")
            script = JobScript(name="sock", modules=("siren", *icon.required_modules),
                               steps=(StepSpec(processes=(
                                   ProcessSpec(executable=icon.path),
                                   ProcessSpec(executable=manifest.tool("bash"), count=2),)),))
            cluster.run_job("erin", script)
            channel.drain()
            ingest.snapshot()
        records = consolidate_store(store)
        assert len(records) == 3
        icon_record = next(r for r in records if r.executable.endswith("/icon"))
        assert icon_record.file_h
        assert icon_record.compilers


class TestOptInBehaviour:
    def test_jobs_without_siren_module_are_invisible(self):
        cluster, manifest, user = _standard_setup()
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        icon = manifest.find_executable("icon", "cray-r1", "erin")
        script = JobScript(name="no-opt-in", modules=tuple(icon.required_modules),
                           steps=(StepSpec(processes=(ProcessSpec(executable=icon.path),)),))
        cluster.run_job("erin", script)
        assert framework.consolidate() == []

    def test_statically_linked_tools_are_invisible(self):
        cluster, manifest, user = _standard_setup()
        framework = SirenFramework(SirenConfig(loss_rate=0.0))
        framework.deploy(cluster, siren_library_path=manifest.siren_library)
        script = JobScript(name="static", modules=("siren",),
                           steps=(StepSpec(processes=(
                               ProcessSpec(executable=manifest.tool("busybox")),
                               ProcessSpec(executable=manifest.tool("bash")),)),))
        cluster.run_job("erin", script)
        records = framework.consolidate()
        assert len(records) == 1
        assert records[0].executable.endswith("/bash")
