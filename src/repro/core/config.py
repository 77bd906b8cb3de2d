"""Configuration of a SIREN deployment.

:class:`SirenConfig` is the one place a deployment knob is declared and
validated.  :class:`~repro.workload.campaign.CampaignConfig` subclasses it
with what a job driver needs on top;
:class:`~repro.core.deployment.Deployment` turns either into the wired
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector.policy import DEFAULT_POLICY, CollectionPolicy
from repro.faults.plan import FaultPlan
from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.util.errors import CollectionError


@dataclass(frozen=True)
class SirenConfig:
    """Deployment-level configuration.

    Parameters
    ----------
    policy:
        The selective-collection policy (defaults to the paper's Table 1).
    loss_rate:
        Probability of losing each UDP datagram (0 disables the lossy channel).
    max_datagram_size:
        Datagram budget used when chunking long contents (at least
        :data:`~repro.transport.messages.MIN_DATAGRAM_SIZE`).
    store_path:
        SQLite path; ``":memory:"`` keeps everything in RAM.
    seed:
        The one deployment seed: the lossy channel's drop decisions and (in
        a campaign) every other RNG stream are forked from it.
    hash_concurrency:
        Process-pool width for per-executable hashing (1 = in-process).
    ingest_mode:
        ``"batch"`` persists raw messages and consolidates in a post-pass
        (the paper's pipeline); ``"streaming"`` consolidates messages as they
        arrive through :mod:`repro.ingest`, so
        :meth:`~repro.core.framework.SirenFramework.snapshot` serves live
        analysis views mid-deployment.  Output records are identical.
    ingest_shards:
        Number of receiver+consolidator shards in streaming mode.  One shard
        runs in this interpreter; more than one run as that many supervised
        OS processes (:class:`~repro.ingest.sharded.ShardedIngest`: each
        process key lands deterministically on one shard, and record output,
        ordering and delta-cursor semantics are identical).
    keep_raw_messages:
        Whether raw messages survive in the ``messages`` table.  In
        streaming mode it decides whether messages are *also* persisted
        alongside live consolidation; in batch mode (where the post-pass
        needs them) ``False`` clears the table when
        :meth:`~repro.core.framework.SirenFramework.finalize` consolidates.
    transport:
        ``"memory"`` (default) delivers datagrams through the in-memory
        channel -- lossy when ``loss_rate > 0``; ``"socket"`` sends genuine
        UDP datagrams over the loopback interface (``loss_rate`` is ignored
        -- losses, if any, come from the kernel).  Socket deployments are
        drained on every ``consolidate``/``snapshot``/``finalize`` and the
        sockets are released by
        :meth:`~repro.core.framework.SirenFramework.close`.
    ingest_max_restarts:
        Supervised restarts allowed per shard worker before a crashed or
        stalled worker surfaces as
        :class:`~repro.util.errors.WorkerCrashError`
        (``ingest_shards > 1`` only; 0 restores fail-fast).
    store_retry_attempts:
        Retries of a store write transaction on *transient* SQLite errors
        (``database is locked`` / ``busy``), with exponential jittered
        backoff; non-transient errors always propagate immediately.
    quarantine_capacity:
        Bounded ring of the most recent undecodable datagrams (raw bytes +
        failure reason) kept for forensics; 0 disables the quarantine.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` arming deterministic
        fault injection: channel faults wrap the in-memory channel
        (``transport="memory"`` only), store faults hook the shared store's
        write paths, worker faults ride into the shard worker processes.
        ``None`` (default) injects nothing.
    store_backend:
        Storage substrate of the tiered record store (``rollups=True``):
        ``"sqlite"`` persists the silver/blob tables next to ``store_path``
        (in-memory alongside an in-memory store), ``"memory"`` keeps them in
        plain dicts.
    rollups:
        Maintain the tiered record store (:mod:`repro.db.tiered`) alongside
        the ``processes`` table: silver hash-partitioned record shards with
        cross-campaign content-addressed payload dedup, plus gold rollups
        answering the Table 2/3/4/8 queries in O(answer).  Rollup answers
        are pinned byte-identical to the recompute-from-records reference;
        ``False`` (default) skips the extra tier entirely.
    """

    policy: CollectionPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    loss_rate: float = 0.0002
    max_datagram_size: int = MAX_DATAGRAM_SIZE
    store_path: str = ":memory:"
    seed: int = 42
    hash_concurrency: int = 1
    ingest_mode: str = "batch"
    ingest_shards: int = 1
    keep_raw_messages: bool = True
    transport: str = "memory"
    ingest_max_restarts: int = 2
    store_retry_attempts: int = 4
    quarantine_capacity: int = 256
    fault_plan: FaultPlan | None = None
    store_backend: str = "sqlite"
    rollups: bool = False

    def validate(self) -> None:
        """Raise :class:`CollectionError` for a value no deployment can honour."""
        for knob, allowed in (("ingest_mode", ("batch", "streaming")),
                              ("transport", ("memory", "socket")),
                              ("store_backend", ("sqlite", "memory"))):
            value = getattr(self, knob)
            if value not in allowed:
                raise CollectionError(
                    f"unknown {knob} {value!r} "
                    f"(expected {allowed[0]!r} or {allowed[1]!r})")
        for knob, least in (("max_datagram_size", MIN_DATAGRAM_SIZE),
                            ("hash_concurrency", 1), ("ingest_shards", 1),
                            ("ingest_max_restarts", 0), ("store_retry_attempts", 0),
                            ("quarantine_capacity", 0)):
            value = getattr(self, knob)
            if value < least:
                raise CollectionError(
                    f"{knob} must be at least {least}, got {value!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise CollectionError(
                f"loss_rate must be in [0, 1], got {self.loss_rate!r}")
        if (self.fault_plan is not None and self.fault_plan.channel.active
                and self.transport != "memory"):
            raise CollectionError(
                "channel fault injection requires transport='memory' "
                "(a socket channel has its own, real faults)")
