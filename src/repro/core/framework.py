"""The SIREN framework: the one place a deployment is wired and run.

SIREN is one fixed chain -- collector -> UDP sender -> channel -> ingest
(decode + consolidation) -> store -> analysis.  :class:`SirenFramework` builds that chain
from a :class:`~repro.core.config.SirenConfig` (memory or socket transport,
optional faults and gold rollups -- see the config for what each knob
means), hooks it onto a simulated cluster (registering the ``LD_PRELOAD``
hook), and owns its lifecycle: drain, snapshot, delta, finalize, close.
Messages are consolidated into per-process records while they arrive, so
every snapshot and analysis works mid-deployment.
:class:`~repro.workload.campaign.DeploymentCampaign` builds the cluster,
runs the jobs and holds one of these; the per-datagram and per-process
paths never pass through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilarityResult
from repro.collector.hooks import SirenCollector
from repro.core.config import SirenConfig
from repro.core.pipeline import AnalysisPipeline
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.faults.channel import FaultyChannel
from repro.faults.store import StoreFaultInjector
from repro.hpcsim.cluster import Cluster
from repro.ingest.incremental import IncrementalConsolidator, ProcessDelta
from repro.transport.channel import InMemoryChannel, LossyChannel, SocketChannel
from repro.transport.sender import UDPSender
from repro.util.errors import CollectionError
from repro.util.retry import RetryPolicy
from repro.util.rng import SeededRNG

DeploymentChannel = LossyChannel | InMemoryChannel | SocketChannel | FaultyChannel


def _no_drain() -> int:
    """:attr:`SirenFramework.drain` of a memory transport (nothing queues)."""
    return 0


@dataclass
class SirenFramework:
    """Store <- ingest <- channel <- sender (<- collector), built from a config.

    ``user_names`` bakes the anonymised labels into the gold user dimension
    (``None`` falls back to ``uid_<n>``, identical to recomputing the tables
    without names).
    """

    config: SirenConfig = field(default_factory=SirenConfig)
    user_names: dict[int, str] | None = None
    store: MessageStore = field(init=False)
    store_fault_injector: StoreFaultInjector | None = field(init=False, default=None)
    #: the gold rollups (``rollups=True``), kept in step with every
    #: consolidated-record write to ``store``
    tiered: TieredStore | None = field(init=False, default=None)
    #: what the sender sends through; a fault plan's decorator *is* the
    #: channel (subscriptions delegate to the channel it wraps)
    channel: DeploymentChannel = field(init=False)
    #: the loss-decision channel underneath, when ``loss_rate > 0``
    lossy_channel: LossyChannel | None = field(init=False, default=None)
    ingest: IncrementalConsolidator = field(init=False)
    sender: UDPSender = field(init=False)
    collector: SirenCollector | None = field(init=False, default=None)
    cluster: Cluster | None = field(init=False, default=None)
    #: pull queued loopback datagrams into the ingest path; bound once so a
    #: per-job call never re-checks the transport
    drain: Callable[[], int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        config = self.config
        config.validate()
        plan = config.fault_plan
        if config.transport == "socket":
            socket_channel = SocketChannel()
            self.channel, self.drain = socket_channel, socket_channel.drain
        else:
            self.drain = _no_drain
            if config.loss_rate > 0:
                self.channel = self.lossy_channel = LossyChannel(
                    loss_rate=config.loss_rate, rng=SeededRNG(config.seed))
            else:
                self.channel = InMemoryChannel()
        if plan is not None and plan.channel.active:
            self.channel = FaultyChannel(plan=plan, inner=self.channel)
        self.store = MessageStore(
            config.store_path,
            retry=RetryPolicy(attempts=config.store_retry_attempts))
        if plan is not None and plan.store.active:
            self.store_fault_injector = StoreFaultInjector(plan).install(self.store)
        if config.rollups:
            self.tiered = TieredStore(self.user_names)
            self.store.attach_tiered(self.tiered)
        self.ingest = IncrementalConsolidator(
            self.store, persist_raw=config.keep_raw_messages,
            quarantine_capacity=config.quarantine_capacity)
        self.ingest.attach(self.channel)
        self.sender = UDPSender(self.channel,
                                max_datagram_size=config.max_datagram_size)

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def deploy(self, cluster: Cluster, *, siren_library_path: str) -> SirenCollector:
        """Register the collection hook on ``cluster`` and return the collector.

        ``siren_library_path`` must point at the installed ``siren.so`` on the
        cluster's filesystem (the corpus builder installs it and exposes the
        path through its manifest).
        """
        if self.collector is not None:
            raise CollectionError("this deployment is already hooked onto a cluster")
        self.collector = SirenCollector(
            filesystem=cluster.filesystem,
            sender=self.sender,
            library_path=siren_library_path,
            policy=self.config.policy,
        )
        cluster.register_preload_hook(self.collector)
        self.cluster = cluster
        return self.collector

    def close(self) -> None:
        """Drain and release the loopback sockets, if any.

        Idempotent; call it when the deployment's traffic has ended.
        Snapshots and analyses keep working on what was already ingested.
        """
        if isinstance(self.channel, SocketChannel):
            self.channel.drain()
            self.channel.close()

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[ProcessRecord]:
        """The records consolidated so far, mid-deployment.

        Finalized records plus a non-destructive peek at still-open process
        groups, so collection continues undisturbed.
        """
        self.drain()
        return self.ingest.snapshot()

    def consolidate(self, *, clear_messages: bool = False) -> list[ProcessRecord]:
        """Flush the ingest path and return everything collected so far
        (:meth:`snapshot`); ``clear_messages=True`` then empties the raw
        messages table."""
        records = self.snapshot()
        if clear_messages:
            self.store.clear_messages()
        return records

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only the records that changed since ``cursor``."""
        self.drain()
        return self.ingest.snapshot_delta(cursor)

    def live_analysis(self, user_names: dict[int, str] | None = None,
                      ) -> LiveAnalysis:
        """An incrementally updated analysis bound to this deployment's stream.

        Every view call pulls the record delta first, so mid-deployment
        tables and similarity queries cost O(new records) and stay
        byte-identical to an :class:`AnalysisPipeline` over :meth:`snapshot`.
        """
        return LiveAnalysis(user_names=user_names or {}).bind(self)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: persist every record, including still-open groups
        (e.g. processes whose ``PROCEND`` datagram was lost)."""
        self.drain()
        if isinstance(self.channel, FaultyChannel):
            # The injected network finally delivers whatever reordering or
            # jitter was still holding back.
            self.channel.flush()
        return self.ingest.finalize()

    def analysis_pipeline(self, user_names: dict[int, str] | None = None,
                          ) -> AnalysisPipeline:
        """An analysis pipeline over everything collected so far.

        Convenience for the common deploy -> run jobs -> analyse loop; each
        call re-snapshots, so it reflects all messages received up to now.
        """
        return AnalysisPipeline(self.consolidate(), user_names or {})

    def identify_unknown(self, *, top: int = 10) -> dict[str, list[SimilarityResult]]:
        """Run the Table 7 similarity search over everything collected so far."""
        return self.analysis_pipeline().table7_similarity_search(top=top)

    def statistics(self) -> dict[str, float]:
        """Operational counters of the deployment."""
        ingest_stats = self.ingest.statistics()
        stats: dict[str, float] = {
            "datagrams_sent": self.sender.datagrams_sent,
            "send_errors": self.sender.send_errors,
            "messages_received": ingest_stats["messages_received"],
            "decode_errors": ingest_stats["decode_errors"],
            "quarantined": ingest_stats["quarantined"],
        }
        for name in ("records_built", "incomplete_records", "early_finalized",
                     "idle_closed", "late_messages", "open_processes",
                     "peak_open_processes"):
            stats[f"ingest_{name}"] = ingest_stats[name]
        stats["store_write_retries"] = self.store.write_retries
        lossy = self.lossy_channel
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
