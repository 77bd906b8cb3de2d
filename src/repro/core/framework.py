"""The SIREN framework: the one place a deployment is wired and run.

SIREN is one fixed chain -- collector -> UDP sender -> channel -> ingest
(decode + consolidation) -> store -> analysis.  :class:`SirenFramework` builds that chain
from a :class:`~repro.core.config.SirenConfig` (optional gold rollups -- see
the config for what each knob means) around the channel it is handed: an
in-memory one by default, a
:class:`~repro.transport.channel.SocketChannel` for real UDP, or whatever
network a caller built.  It hooks the chain onto a simulated cluster
(registering the ``LD_PRELOAD`` hook) and owns its lifecycle: drain,
snapshot, delta, finalize, close.
Messages are consolidated into per-process records while they arrive, so
every snapshot and analysis works mid-deployment.
:class:`~repro.workload.campaign.DeploymentCampaign` builds the cluster and
its simulated network, runs the jobs and holds one of these; the
per-datagram and per-process paths never pass through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.live import LiveAnalysis
from repro.collector.hooks import SirenCollector
from repro.core.config import SirenConfig
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.hpcsim.cluster import Cluster
from repro.ingest.incremental import IncrementalConsolidator, ProcessDelta
from repro.transport.channel import Channel, InMemoryChannel, SocketChannel
from repro.transport.sender import UDPSender
from repro.util.errors import CollectionError


def _no_drain() -> int:
    """:attr:`SirenFramework.drain` of a channel that delivers as it sends."""
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
    #: what the sender sends through; a loopback ``SocketChannel`` is
    #: drained on every snapshot, delta and finalize and released by
    #: :meth:`close`
    channel: Channel = field(default_factory=InMemoryChannel)
    store: MessageStore = field(init=False)
    #: the gold rollups (``rollups=True``), kept in step with every
    #: consolidated-record write to ``store``
    tiered: TieredStore | None = field(init=False, default=None)
    ingest: IncrementalConsolidator = field(init=False)
    sender: UDPSender = field(init=False)
    collector: SirenCollector | None = field(init=False, default=None)
    cluster: Cluster | None = field(init=False, default=None)
    #: pull queued loopback datagrams into the ingest path; bound once so a
    #: per-job call never re-checks the channel
    drain: Callable[[], int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        config = self.config
        config.validate()
        channel = self.channel
        self.drain = channel.drain if isinstance(channel, SocketChannel) else _no_drain
        self.store = MessageStore(config.store_path)
        if config.rollups:
            self.tiered = TieredStore(self.user_names)
            self.store.attach_tiered(self.tiered)
        self.ingest = IncrementalConsolidator(
            self.store, persist_raw=config.keep_raw_messages)
        self.ingest.attach(channel)
        self.sender = UDPSender(channel, max_datagram_size=config.max_datagram_size)

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

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only the records that changed since ``cursor``."""
        self.drain()
        return self.ingest.snapshot_delta(cursor)

    def live_analysis(self) -> LiveAnalysis:
        """An incrementally updated analysis bound to this deployment's stream.

        Users carry the deployment's own :attr:`user_names` labels, the
        ones gold bakes in.  Every view call pulls the record delta first,
        so mid-deployment tables and similarity queries cost O(new records)
        and stay byte-identical to an
        :class:`~repro.core.pipeline.AnalysisPipeline` over :meth:`snapshot`.
        """
        return LiveAnalysis(user_names=self.user_names or {}).bind(self)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: persist every record, including still-open groups
        (e.g. processes whose ``PROCEND`` datagram was lost)."""
        self.drain()
        return self.ingest.finalize()

    def statistics(self) -> dict[str, float]:
        """Operational counters of the deployment: what SIREN itself counts
        (the network's drops and faults are its owner's to report)."""
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
        if self.collector is not None:
            stats["processes_collected"] = self.collector.processes_collected
            stats["processes_skipped"] = self.collector.processes_skipped
            stats["section_errors"] = self.collector.section_errors
        if self.tiered is not None:
            for name, value in self.tiered.statistics().items():
                stats[name] = value
        return stats
