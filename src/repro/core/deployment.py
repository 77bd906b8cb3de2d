"""The one place a SIREN deployment is wired and run.

SIREN is one fixed chain -- collector -> UDP sender -> channel -> receiver ->
consolidation -> store -> analysis.  :class:`Deployment` builds that chain
from a :class:`~repro.core.config.SirenConfig` and owns its lifecycle
(drain, snapshot, delta, finalize, close), so the batch/streaming fork lives
here and nowhere else.  :class:`~repro.core.framework.SirenFramework` (hook
it onto a cluster you already have) and
:class:`~repro.workload.campaign.DeploymentCampaign` (build the cluster and
drive the jobs too) are thin callers: they keep direct references to the
objects built here, so the per-datagram and per-process paths never pass
through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.live import LiveAnalysis
from repro.collector.hooks import SirenCollector
from repro.core.config import SirenConfig
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore, build_tiered_store
from repro.faults.channel import FaultyChannel
from repro.faults.store import StoreFaultInjector
from repro.hpcsim.cluster import Cluster
from repro.ingest.sharded import ProcessDelta, ShardedIngest
from repro.postprocess.consolidate import Consolidator
from repro.transport.channel import InMemoryChannel, LossyChannel, SocketChannel
from repro.transport.receiver import DatagramQuarantine, MessageReceiver
from repro.transport.sender import UDPSender
from repro.util.errors import CollectionError
from repro.util.retry import RetryPolicy
from repro.util.rng import SeededRNG
from repro.util.timing import NULL_TIMER, StageTimer

DeploymentChannel = LossyChannel | InMemoryChannel | SocketChannel | FaultyChannel


def _no_drain() -> int:
    """:attr:`Deployment.drain` of a memory transport (nothing queues)."""
    return 0


@dataclass
class Deployment:
    """Store <- ingest <- channel <- sender (<- collector), built from a config.

    ``timer`` is threaded through every stage it builds; ``user_names`` bakes
    the anonymised labels into the gold user dimension (``None`` falls back
    to ``uid_<n>``, identical to recomputing the tables without names).
    With a ``datagram_sink`` the deployment is collect-only (the parallel
    driver's worker side): no store, receiver or ingest is built, every
    datagram that survives the channel goes to the sink, and only
    :meth:`deploy`, :attr:`drain` and :meth:`close` are meaningful.
    """

    config: SirenConfig
    timer: StageTimer = field(default=NULL_TIMER, repr=False)
    user_names: dict[int, str] | None = None
    datagram_sink: Callable[[bytes], None] | None = None
    store: MessageStore = field(init=False)
    store_fault_injector: StoreFaultInjector | None = field(init=False, default=None)
    tiered: TieredStore | None = field(init=False, default=None)
    #: what the sender sends through; a fault plan's decorator *is* the
    #: channel (subscriptions delegate to the channel it wraps)
    channel: DeploymentChannel = field(init=False)
    #: the loss-decision channel underneath, when ``loss_rate > 0``
    lossy_channel: LossyChannel | None = field(init=False, default=None)
    ingest: ShardedIngest | None = field(init=False, default=None)
    receiver: MessageReceiver | None = field(init=False, default=None)
    #: whichever of the two the channel delivers to
    front: ShardedIngest | MessageReceiver = field(init=False)
    quarantine: DatagramQuarantine | None = field(init=False, default=None)
    sender: UDPSender = field(init=False)
    collector: SirenCollector | None = field(init=False, default=None)
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
        if self.datagram_sink is not None:
            self.channel.subscribe(self.datagram_sink)
        else:
            self._build_receiving_side()
        self.sender = UDPSender(self.channel,
                                max_datagram_size=config.max_datagram_size,
                                timer=self.timer)

    def _build_receiving_side(self) -> None:
        config = self.config
        plan = config.fault_plan
        self.store = MessageStore(
            config.store_path,
            retry=RetryPolicy(attempts=config.store_retry_attempts))
        self.store.timer = self.timer
        if plan is not None and plan.store.active:
            self.store_fault_injector = StoreFaultInjector(plan).install(self.store)
        if config.rollups:
            # The store's auto-sync keeps the tiers current through every
            # consolidation path.
            self.tiered = build_tiered_store(
                config.store_backend, store_path=config.store_path,
                campaign=f"campaign-seed{config.seed}",
                user_names=self.user_names)
            self.store.attach_tiered(self.tiered)
        if config.ingest_mode == "streaming":
            self.front = self.ingest = ShardedIngest(
                self.store, shards=config.ingest_shards,
                persist_raw=config.keep_raw_messages,
                max_restarts=config.ingest_max_restarts,
                quarantine_capacity=config.quarantine_capacity,
                fault_plan=plan, timer=self.timer)
            self.quarantine = self.ingest.quarantine
        else:
            if config.quarantine_capacity:
                self.quarantine = DatagramQuarantine(
                    capacity=config.quarantine_capacity)
            self.front = self.receiver = MessageReceiver(
                self.store, quarantine=self.quarantine)
        self.front.attach(self.channel)

    def deploy(self, cluster: Cluster, library_path: str) -> SirenCollector:
        """Hook ``library_path`` (the installed ``siren.so``) onto ``cluster``."""
        if self.collector is not None:
            raise CollectionError("this deployment is already hooked onto a cluster")
        self.collector = SirenCollector(
            filesystem=cluster.filesystem,
            sender=self.sender,
            library_path=library_path,
            policy=self.config.policy,
            hash_concurrency=self.config.hash_concurrency,
        )
        self.collector.timer = self.timer
        cluster.register_preload_hook(self.collector)
        return self.collector

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> list[ProcessRecord]:
        """The records consolidated so far, mid-deployment.

        Streaming: finalized records plus a non-destructive peek at
        still-open process groups, so collection continues undisturbed.
        Batch: flush the receiver and run the post-pass over the raw
        messages table -- record-for-record the same result.
        """
        self.drain()
        if self.ingest is not None:
            return self.ingest.snapshot()
        assert self.receiver is not None
        self.receiver.flush()
        return Consolidator(self.store).run()

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Incremental live view: only the records that changed since ``cursor``.

        Streaming mode only -- the delta contract rests on finalized records
        being immutable, which batch re-consolidation does not provide.
        """
        if self.ingest is None:
            raise CollectionError(
                "snapshot_delta requires ingest_mode='streaming' (batch "
                "re-consolidation rewrites records, so there is no delta stream)")
        self.drain()
        return self.ingest.snapshot_delta(cursor)

    def live_analysis(self, user_names: dict[int, str] | None = None,
                      ) -> LiveAnalysis:
        """An incrementally updated analysis bound to this deployment's stream.

        Streaming mode only.  Every view call pulls the record delta first,
        so mid-deployment tables and similarity queries cost O(new records)
        and stay byte-identical to an
        :class:`~repro.core.pipeline.AnalysisPipeline` over :meth:`snapshot`.
        """
        if self.ingest is None:
            raise CollectionError(
                "live_analysis requires ingest_mode='streaming'; batch mode "
                "can feed LiveAnalysis.observe() with snapshot() output instead")
        return LiveAnalysis(user_names=user_names or {}).bind(self)

    def finalize(self) -> list[ProcessRecord]:
        """End of stream: persist every record, including still-open groups.

        Streaming closes all open process groups (e.g. processes whose
        ``PROCEND`` datagram was lost); batch runs the final consolidation
        pass.  Either way ``keep_raw_messages=False`` leaves the raw
        messages table empty now that nothing will re-read it -- mid-run
        :meth:`snapshot` calls never clear it, a post-pass may still need it.
        """
        self.drain()
        if isinstance(self.channel, FaultyChannel):
            # The injected network finally delivers whatever reordering or
            # jitter was still holding back.
            self.channel.flush()
        if self.ingest is not None:
            records = self.ingest.finalize()
        else:
            records = self.snapshot()
        if not self.config.keep_raw_messages:
            self.store.clear_messages()
        return records

    def close(self) -> None:
        """Release what the deployment holds outside this interpreter's heap.

        The collector's hash worker pool (a later concurrent batch simply
        respawns it), the loopback sockets (drained first) and any process
        shard workers -- whose unsynced records are discarded, so call
        :meth:`finalize` first for a clean end of stream.  Idempotent;
        snapshots and analyses keep working on what was already ingested.
        """
        try:
            if self.collector is not None:
                self.collector.close()
            if isinstance(self.channel, SocketChannel):
                self.channel.drain()
                self.channel.close()
        finally:
            if self.ingest is not None:
                self.ingest.close()

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #
    @property
    def decode_errors(self) -> int:
        """Undecodable datagrams dropped by the ingest path."""
        return self.front.decode_errors

    @property
    def quarantined(self) -> int:
        """Of those, raw bytes captured in the forensic ring (0 when off)."""
        return len(self.quarantine) if self.quarantine is not None else 0

    @property
    def worker_restarts(self) -> int:
        """Supervised shard-worker restarts (streaming with ``ingest_shards > 1``)."""
        return self.ingest.worker_restarts if self.ingest is not None else 0
