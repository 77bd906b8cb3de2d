"""Shared fixtures for the test suite.

The expensive fixture is a small-scale deployment campaign (a few thousand
simulated processes); it is session-scoped so the analysis and integration
tests can all share one run.  Component tests build their own tiny clusters.

The ingest and fault-injection tests share a *dual-ingest harness*: one
channel carrying one datagram stream (optionally lossy) delivered
simultaneously to an ingest object persisting raw messages and to the ingest
path under test.  Because both paths observe the exact same surviving datagrams,
comparing the post-pass oracle's output (``oracles/consolidate.py``) with
the streaming output pins record-for-record equivalence without
coordinating two RNGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.collector.hooks import SirenCollector
from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.corpus.builder import CorpusBuilder, CorpusManifest
from repro.corpus.packages import ICON, LAMMPS
from repro.db.store import MessageStore, ProcessRecord
from repro.hpcsim.cluster import Cluster
from repro.ingest import IncrementalConsolidator
from repro.transport.channel import InMemoryChannel, LossyChannel
from repro.transport.messages import Section, wire_header
from repro.transport.sender import UDPSender
from repro.util.rng import SeededRNG
from repro.workload import CampaignConfig, CampaignResult, DeploymentCampaign

from oracles.consolidate import records_from_messages


@pytest.fixture(scope="session")
def campaign_result() -> CampaignResult:
    """One shared small-scale campaign run (deterministic)."""
    config = CampaignConfig(scale=0.004, seed=1, loss_rate=0.0002)
    return DeploymentCampaign(config=config).run()


@pytest.fixture(scope="session")
def pipeline(campaign_result: CampaignResult) -> AnalysisPipeline:
    """Analysis pipeline over the shared campaign."""
    return AnalysisPipeline(campaign_result.records, campaign_result.user_names)


@pytest.fixture(scope="session")
def campaign_records(campaign_result: CampaignResult):
    """Consolidated records of the shared campaign."""
    return campaign_result.records


@pytest.fixture()
def rng() -> SeededRNG:
    """A fresh deterministic RNG."""
    return SeededRNG(1234)


@pytest.fixture(scope="module")
def base_cluster() -> tuple[Cluster, CorpusManifest]:
    """A cluster with the base corpus (libraries, tools, Python, siren) installed."""
    cluster = Cluster()
    builder = CorpusBuilder(cluster)
    manifest = builder.install_base_system()
    return cluster, manifest


@pytest.fixture(scope="module")
def app_cluster() -> tuple[Cluster, CorpusManifest]:
    """A cluster with the base corpus plus ICON and LAMMPS installed for one user."""
    cluster = Cluster()
    builder = CorpusBuilder(cluster)
    manifest = builder.install_base_system()
    user = cluster.add_user("alice")
    builder.install_package(ICON, user)
    builder.install_package(LAMMPS, user)
    return cluster, manifest


@pytest.fixture()
def deployed_framework(app_cluster) -> tuple[Cluster, CorpusManifest, SirenFramework, SirenCollector]:
    """A SIREN framework deployed (fresh per test) on the shared app cluster."""
    cluster, manifest = app_cluster
    framework = SirenFramework(SirenConfig(loss_rate=0.0))
    collector = framework.deploy(cluster, siren_library_path=manifest.siren_library)
    yield cluster, manifest, framework, collector
    cluster.runtime.unregister_hook(manifest.siren_library)


@dataclass
class SyntheticWorkload:
    """Emits realistic process message bursts over a channel."""

    sender: UDPSender
    rng: SeededRNG
    processes_emitted: int = 0
    _running: list[tuple[bytes, list[Section]]] = field(default_factory=list)  # pending PROCENDs

    def emit_process(self, pid: int, *, time: int = 100) -> None:
        """One process: contiguous constructor burst now, PROCEND later."""
        category = self.rng.choice(["system", "user", "python"])
        exe = {"system": f"/usr/bin/tool{pid % 5}",
               "user": f"/project/p/u/app{pid % 3}",
               "python": "/usr/bin/python3.10"}[category]
        header = wire_header(str(1 + pid // 50), "0", pid, f"{pid:032x}", f"n{pid % 4}", time)
        msg = lambda info_type, content, layer=Layer.SELF: (layer, info_type, content)

        burst = [
            msg(InfoType.PROCINFO, format_keyvalues({
                "pid": pid, "ppid": 1, "uid": 1000 + pid % 7, "gid": 1000,
                "exe": exe, "category": category})),
            msg(InfoType.FILEMETA, format_keyvalues({"inode": pid, "size": 4096})),
            msg(InfoType.OBJECTS,
                "\n".join(f"/appl/cray/pe/lib64/lib{i}.so" for i in range(30))),
            msg(InfoType.OBJECTS_H, "3:abcdefghijklmnop:qrstuvwx"),
        ]
        if category in ("user", "python"):
            burst.append(msg(InfoType.MAPS, "\n".join(
                f"7f{i:010x}-7f{i + 1:010x} r-xp /lib64/lib{i}.so" for i in range(40))))
            burst.append(msg(InfoType.MAPS_H, "6:mapsmapsmaps:mapmap"))
        if category == "user":
            burst.extend([
                msg(InfoType.MODULES, "siren/0.1:cce/17.0.1"),
                msg(InfoType.MODULES_H, "3:modmodmod:mm"),
                msg(InfoType.COMPILERS, ";".join(
                    f"GCC: (SUSE Linux) 12.{i}.0" for i in range(12))),
                msg(InfoType.COMPILERS_H, "3:cccccccc:cc"),
                msg(InfoType.FILE_H, "96:filefilefile:ff"),
                msg(InfoType.STRINGS_H, "48:strstrstr:ss"),
                msg(InfoType.SYMBOLS_H, "24:symsymsym:yy"),
            ])
        if category == "python":
            burst.extend([
                msg(InfoType.PROCINFO,
                    format_keyvalues({"script": f"/users/u/run{pid % 3}.py"}),
                    layer=Layer.SCRIPT),
                msg(InfoType.FILEMETA, "inode=9|size=40", layer=Layer.SCRIPT),
                msg(InfoType.FILE_H, "3:scriptscript:pt", layer=Layer.SCRIPT),
            ])
        self.sender.send(header, burst)
        self._running.append((header, [msg(InfoType.PROCEND, format_keyvalues(
            {"end_time": time + 5, "exit_code": 0}))]))
        self.processes_emitted += 1

    def maybe_end_one(self) -> None:
        """End the oldest still-running process (if any)."""
        if self._running:
            self.sender.send(*self._running.pop(0))

    def end_all(self) -> None:
        """End every still-running process."""
        while self._running:
            self.maybe_end_one()

    def emit_campaign(self, processes: int) -> None:
        """Interleave process starts and ends, then end everything."""
        for pid in range(processes):
            self.emit_process(pid, time=100 + pid // 10)
            if self.rng.random() < 0.6:
                self.maybe_end_one()
        self.end_all()


@dataclass
class DualIngest:
    """One datagram stream, two ingest paths (post-pass oracle + under test)."""

    channel: LossyChannel | InMemoryChannel
    workload: SyntheticWorkload
    batch_store: MessageStore
    batch_ingest: IncrementalConsolidator

    def batch_records(self) -> list[ProcessRecord]:
        self.batch_ingest.finalize()  # persists the last raw batch
        return records_from_messages(self.batch_store)


@pytest.fixture()
def dual_ingest():
    """Factory: dual-ingest harness around a seeded (possibly lossy) channel.

    The caller attaches its own streaming path to ``harness.channel`` before
    emitting, then compares against ``harness.batch_records()``.
    """
    def build(*, loss_rate: float = 0.0, seed: int = 1,
              max_datagram_size: int = 300) -> DualIngest:
        if loss_rate > 0:
            channel = LossyChannel(loss_rate=loss_rate, rng=SeededRNG(seed))
        else:
            channel = InMemoryChannel()
        batch_store = MessageStore()
        batch_ingest = IncrementalConsolidator(batch_store, persist_raw=True)
        batch_ingest.attach(channel)
        # Small datagram budget so OBJECTS/MAPS/COMPILERS genuinely chunk.
        sender = UDPSender(channel, max_datagram_size=max_datagram_size)
        workload = SyntheticWorkload(sender=sender, rng=SeededRNG(seed * 31 + 7))
        return DualIngest(channel=channel, workload=workload,
                          batch_store=batch_store, batch_ingest=batch_ingest)

    return build
