"""Ablation -- collection overhead and the Table 1 selective policy.

SIREN's design goal is lightweight collection: hashing is skipped for system
executables and for non-zero MPI ranks.  These benches measure per-process
collection cost under Table 1 vs a table patched to collect, for every
process category, everything a user executable gets, and the cost of the
whole campaign machinery.
"""

from unittest import mock

import pytest

from repro.collector.classify import ExecutableCategory
from repro.collector.hooks import SirenCollector
from repro.collector.policy import TABLE_1
from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import ICON
from repro.db.store import MessageStore
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.ingest import IncrementalConsolidator
from repro.transport.channel import InMemoryChannel
from repro.transport.sender import UDPSender
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign


def _environment():
    cluster = Cluster()
    corpus = CorpusBuilder(cluster)
    manifest = corpus.install_base_system()
    user = cluster.add_user("bench")
    corpus.install_package(ICON, user)
    return cluster, manifest


def _system_heavy_job(manifest) -> JobScript:
    return JobScript(name="system-heavy", modules=("siren",), steps=(StepSpec(processes=(
        ProcessSpec(executable=manifest.tool("bash"), count=10),
        ProcessSpec(executable=manifest.tool("mkdir"), count=30),
        ProcessSpec(executable=manifest.tool("rm"), count=30),
        ProcessSpec(executable=manifest.tool("cat"), count=5),
    )),))


#: Table 1 with every process category collected like a user executable.
COLLECT_EVERYTHING = {category: TABLE_1[ExecutableCategory.USER]
                      for category in ExecutableCategory}


def _run_policy(cluster, manifest, table) -> int:
    store = MessageStore()
    channel = InMemoryChannel()
    ingest = IncrementalConsolidator(store, persist_raw=True)
    ingest.attach(channel)
    collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                               manifest.siren_library)
    cluster.register_preload_hook(collector)
    try:
        with mock.patch.dict(TABLE_1, table):
            cluster.run_job("bench", _system_heavy_job(manifest))
    finally:
        cluster.runtime.unregister_hook(manifest.siren_library)
    ingest.finalize()
    return store.message_count()


class TestSelectivePolicyAblation:
    @pytest.fixture(scope="class")
    def environment(self):
        return _environment()

    def test_default_policy_system_heavy_job(self, benchmark, environment):
        cluster, manifest = environment
        messages = benchmark.pedantic(_run_policy, args=(cluster, manifest, {}),
                                      rounds=3, iterations=1)
        assert messages > 0

    def test_full_policy_system_heavy_job(self, benchmark, environment):
        cluster, manifest = environment
        messages = benchmark.pedantic(_run_policy, args=(cluster, manifest, COLLECT_EVERYTHING),
                                      rounds=3, iterations=1)
        assert messages > 0

    def test_selective_policy_reduces_message_volume(self, environment):
        cluster, manifest = environment
        default_messages = _run_policy(cluster, manifest, {})
        full_messages = _run_policy(cluster, manifest, COLLECT_EVERYTHING)
        table = TextTable(["policy", "UDP messages for one system-heavy job"],
                          title="Selective collection ablation (Table 1 policy)")
        table.add_row(["Table 1 (default)", default_messages])
        table.add_row(["collect everything", full_messages])
        print()
        print(table.render())
        assert default_messages < full_messages


class TestCampaignThroughput:
    def test_small_campaign_end_to_end(self, benchmark):
        """End-to-end cost of the whole pipeline at a tiny scale."""
        def run():
            config = CampaignConfig(scale=0.0, seed=99, min_jobs_per_user=1)
            return DeploymentCampaign(config=config).run()

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.processes_run > 0
        per_process = (result.collector.processes_collected
                       + result.collector.processes_skipped)
        assert per_process == result.processes_run
