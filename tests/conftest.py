"""Shared fixtures for the test suite.

The expensive fixtures are session-scoped campaigns: a small-scale one the
analysis and integration tests share, and :func:`recorded_campaign`, whose
stream the ingest, fault and recorded-output tests replay and whose launch
ledger (``oracles/ledger.py``) the record contract checks them against.
Component tests build their own tiny clusters; the hot-path count guards
replay a :class:`SyntheticWorkload`'s hand-written bursts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from unittest import mock

import pytest

from repro.collector.hooks import SirenCollector
from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.core import AnalysisPipeline, SirenConfig, SirenFramework
from repro.corpus.builder import CorpusBuilder, CorpusManifest
from repro.corpus.packages import ICON, LAMMPS
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.faults import ChannelFaultProfile, FaultPlan, FaultyChannel
from repro.transport.channel import InMemoryChannel
from repro.transport.messages import Section, wire_header
from repro.transport.sender import UDPSender
from repro.util.rng import SeededRNG
from repro.workload import CampaignConfig, CampaignResult, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles.ledger import GroundTruthLedger


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


@dataclass(frozen=True, repr=False)    # a failed assertion must not print the stream
class RecordedCampaign:
    """A campaign's result, every datagram it sent, in order, and its ledger."""

    result: CampaignResult
    stream: list[bytes]
    ledger: GroundTruthLedger


@pytest.fixture(scope="session")
def recorded_campaign() -> RecordedCampaign:
    """The lossless seed-7 scale-0.0 campaign of four profiles, recorded as it runs."""
    config = CampaignConfig(scale=0.0, seed=7, loss_rate=0.0, keep_raw_messages=False)
    campaign = DeploymentCampaign(config=config, profiles=DEFAULT_PROFILES[:4])
    campaign.prepare()
    stream: list[bytes] = []
    campaign.channel.subscribe(stream.append)
    ledger = GroundTruthLedger(campaign.cluster, campaign.manifest.siren_library)
    return RecordedCampaign(campaign.run(), stream, ledger)


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
    framework = SirenFramework(SirenConfig())
    with mock.patch.object(cluster.runtime, "_hooks", []):
        collector = framework.deploy(cluster, siren_library_path=manifest.siren_library)
        yield cluster, manifest, framework, collector


@dataclass
class SyntheticWorkload:
    """Emits realistic process message bursts over a channel."""

    sender: UDPSender
    rng: random.Random
    _running: list[tuple[bytes, list[Section]]] = field(default_factory=list)  # pending PROCENDs

    def emit_process(self, pid: int, *, time: int = 100) -> None:
        """One process: contiguous constructor burst now, PROCEND later."""
        category = self.rng.choice(["system", "user", "python"])
        exe = {"system": f"/usr/bin/tool{pid % 5}", "user": f"/project/p/u/app{pid % 3}",
               "python": "/usr/bin/python3.10"}[category]
        header = wire_header(str(1 + pid // 50), "0", pid, f"{pid:032x}", f"n{pid % 4}", time)
        sections = [
            (InfoType.PROCINFO, format_keyvalues({"pid": pid, "ppid": 1, "uid": 1000 + pid % 7,
                                                  "gid": 1000, "exe": exe, "category": category})),
            (InfoType.FILEMETA, format_keyvalues({"inode": pid, "size": 4096})),
            (InfoType.OBJECTS, "\n".join(f"/appl/cray/pe/lib64/lib{i}.so" for i in range(30))),
            (InfoType.OBJECTS_H, "3:abcdefghijklmnop:qrstuvwx")]
        if category in ("user", "python"):
            sections += [(InfoType.MAPS, "\n".join(
                f"7f{i:010x}-7f{i + 1:010x} r-xp /lib64/lib{i}.so" for i in range(40))),
                (InfoType.MAPS_H, "6:mapsmapsmaps:mapmap")]
        if category == "user":
            sections += [
                (InfoType.MODULES, "siren/0.1:cce/17.0.1"), (InfoType.MODULES_H, "3:modmodmod:mm"),
                (InfoType.COMPILERS, ";".join(f"GCC: (SUSE Linux) 12.{i}.0" for i in range(12))),
                (InfoType.COMPILERS_H, "3:cccccccc:cc"), (InfoType.FILE_H, "96:filefilefile:ff"),
                (InfoType.STRINGS_H, "48:strstrstr:ss"), (InfoType.SYMBOLS_H, "24:symsymsym:yy")]
        burst: list[Section] = [(Layer.SELF, *section) for section in sections]
        if category == "python":
            script = format_keyvalues({"script": f"/users/u/run{pid % 3}.py"})
            burst += [(Layer.SCRIPT, InfoType.PROCINFO, script),
                      (Layer.SCRIPT, InfoType.FILEMETA, "inode=9|size=40"),
                      (Layer.SCRIPT, InfoType.FILE_H, "3:scriptscript:pt")]
        self.sender.send(header, burst)
        self._running.append((header, [(Layer.SELF, InfoType.PROCEND, format_keyvalues(
            {"end_time": time + 5, "exit_code": 0}))]))

    def maybe_end_one(self) -> None:
        """End the oldest still-running process (if any)."""
        if self._running:
            self.sender.send(*self._running.pop(0))

    def emit_campaign(self, processes: int) -> None:
        """Interleave process starts and ends, then end everything."""
        for pid in range(processes):
            self.emit_process(pid, time=100 + pid // 10)
            if self.rng.random() < 0.6:
                self.maybe_end_one()
        while self._running:
            self.maybe_end_one()


@pytest.fixture()
def synthetic_stream():
    """Factory: the datagrams a :class:`SyntheticWorkload` sends through a
    seeded (possibly lossy) channel, collected as it emits, and the workload."""
    def build(loss_rate: float = 0.0, seed: int = 1) -> tuple[SyntheticWorkload, list[bytes]]:
        channel = (FaultyChannel(FaultPlan(channel=ChannelFaultProfile(drop_rate=loss_rate)),
                                 rng=SeededRNG(seed)) if loss_rate > 0
                   else InMemoryChannel())
        datagrams: list[bytes] = []
        channel.subscribe(datagrams.append)
        # Small datagram budget so OBJECTS/MAPS/COMPILERS genuinely chunk.
        sender = UDPSender(channel, max_datagram_size=300)
        return SyntheticWorkload(sender=sender, rng=random.Random(seed * 31 + 7)), datagrams

    return build
