"""The SIREN framework facade.

One :class:`SirenFramework` instance corresponds to one deployment of SIREN on
a system you already have: a :class:`~repro.core.deployment.Deployment` wires
store, channel, ingest path and sender from the
:class:`~repro.core.config.SirenConfig` (batch or streaming, memory or
socket -- see the config for what each knob means); the framework hooks it
onto a simulated cluster (registering the ``LD_PRELOAD`` hook), consolidates
whatever has been collected so far into per-process records, and serves the
analyses over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilarityResult
from repro.collector.hooks import SirenCollector
from repro.core.config import SirenConfig
from repro.core.deployment import Deployment, DeploymentChannel
from repro.core.pipeline import AnalysisPipeline
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.faults.channel import FaultyChannel
from repro.faults.store import StoreFaultInjector
from repro.hpcsim.cluster import Cluster
from repro.ingest.sharded import ProcessDelta, ShardedIngest
from repro.transport.receiver import MessageReceiver
from repro.transport.sender import UDPSender


@dataclass
class SirenFramework:
    """Collector + transport + ingest + database, wired by a :class:`Deployment`."""

    config: SirenConfig = field(default_factory=SirenConfig)
    deployment: Deployment = field(init=False, repr=False)
    store: MessageStore = field(init=False)
    #: what the sender sends through -- the fault-injection decorator itself
    #: when the config's ``fault_plan`` has active channel faults
    channel: DeploymentChannel = field(init=False)
    store_fault_injector: StoreFaultInjector | None = field(init=False, default=None)
    receiver: MessageReceiver | None = field(init=False, default=None)
    ingest: ShardedIngest | None = field(init=False, default=None)
    #: the tiered record store (``rollups=True``): silver record shards +
    #: gold rollups, auto-synced with every consolidated-record write
    tiered: TieredStore | None = field(init=False, default=None)
    sender: UDPSender = field(init=False)
    collector: SirenCollector | None = None
    cluster: Cluster | None = None

    def __post_init__(self) -> None:
        # A framework deployment has no user registry at construction time,
        # so gold user labels fall back to ``uid_<n>``.
        deployment = self.deployment = Deployment(self.config)
        self.store = deployment.store
        self.channel = deployment.channel
        self.store_fault_injector = deployment.store_fault_injector
        self.receiver = deployment.receiver
        self.ingest = deployment.ingest
        self.tiered = deployment.tiered
        self.sender = deployment.sender

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def deploy(self, cluster: Cluster, *, siren_library_path: str) -> SirenCollector:
        """Register the collection hook on ``cluster`` and return the collector.

        ``siren_library_path`` must point at the installed ``siren.so`` on the
        cluster's filesystem (the corpus builder installs it and exposes the
        path through its manifest).
        """
        self.collector = self.deployment.deploy(cluster, siren_library_path)
        self.cluster = cluster
        return self.collector

    def close(self) -> None:
        """Release deployment resources (see :meth:`Deployment.close`).

        Call it when the deployment's traffic has ended; memory-channel
        collection and analysis keep working afterwards.
        """
        self.deployment.close()

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    def consolidate(self, *, clear_messages: bool = False) -> list[ProcessRecord]:
        """Flush the ingest path and consolidate everything collected so far.

        In batch mode this runs the post-pass consolidator over the raw
        messages table; in streaming mode it returns the live snapshot
        (finalized records plus a non-destructive peek at still-open process
        groups) -- record-for-record the same result.
        """
        records = self.deployment.snapshot()
        if clear_messages:
            self.store.clear_messages()
        return records

    def snapshot(self) -> list[ProcessRecord]:
        """The records consolidated so far (see :meth:`Deployment.snapshot`)."""
        return self.deployment.snapshot()

    def finalize(self) -> list[ProcessRecord]:
        """End the ingest stream (see :meth:`Deployment.finalize`)."""
        return self.deployment.finalize()

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Only the records that changed since ``cursor`` (streaming mode only;
        see :meth:`Deployment.snapshot_delta`)."""
        return self.deployment.snapshot_delta(cursor)

    def live_analysis(self, user_names: dict[int, str] | None = None,
                      ) -> LiveAnalysis:
        """An incrementally updated analysis bound to this deployment's stream
        (streaming mode only; see :meth:`Deployment.live_analysis`)."""
        return self.deployment.live_analysis(user_names)

    def analysis_pipeline(self, user_names: dict[int, str] | None = None,
                          ) -> AnalysisPipeline:
        """Consolidate everything collected so far into an analysis pipeline.

        Convenience for the common deploy -> run jobs -> analyse loop; each
        call re-consolidates (or re-snapshots, in streaming mode), so it
        reflects all messages received up to now.
        """
        return AnalysisPipeline(self.consolidate(), user_names or {})

    def identify_unknown(self, *, top: int = 10) -> dict[str, list[SimilarityResult]]:
        """Run the Table 7 similarity search over everything collected so far."""
        return self.analysis_pipeline().table7_similarity_search(top=top)

    def statistics(self) -> dict[str, float]:
        """Operational counters of the deployment."""
        deployment = self.deployment
        stats: dict[str, float] = {
            "datagrams_sent": self.sender.datagrams_sent,
            "send_errors": self.sender.send_errors,
            "messages_received": deployment.front.messages_received,
            "decode_errors": deployment.decode_errors,
            "quarantined": deployment.quarantined,
        }
        if self.ingest is not None:
            ingest_stats = self.ingest.statistics()
            for name in ("records_built", "incomplete_records", "early_finalized",
                         "idle_closed", "late_messages", "open_processes",
                         "peak_open_processes", "worker_restarts",
                         "restart_lost_groups", "restart_lost_datagrams"):
                stats[f"ingest_{name}"] = ingest_stats[name]
        stats["store_write_retries"] = self.store.write_retries
        lossy = deployment.lossy_channel
        if lossy is not None:
            stats["datagrams_dropped"] = lossy.datagrams_dropped
            stats["observed_loss_rate"] = lossy.observed_loss_rate
        if isinstance(self.channel, FaultyChannel):
            for name, value in self.channel.fault_counters().items():
                stats[f"fault_{name}"] = value
        if self.collector is not None:
            stats["processes_collected"] = self.collector.processes_collected
            stats["processes_skipped"] = self.collector.processes_skipped
            stats["section_errors"] = self.collector.section_errors
        if self.tiered is not None:
            for name, value in self.tiered.statistics().items():
                stats[name] = value
        return stats
