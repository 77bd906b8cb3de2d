"""Configuration of a SIREN deployment.

:class:`SirenConfig` is the one place a deployment knob is declared and
validated.  :class:`~repro.workload.campaign.CampaignConfig` subclasses it
with what a job driver needs on top;
:class:`~repro.core.framework.SirenFramework` turns either into the wired
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
    ingest_mode:
        ``"streaming"``, the only value: messages are consolidated as they
        arrive through :mod:`repro.ingest`, so
        :meth:`~repro.core.framework.SirenFramework.snapshot` serves live
        analysis views mid-deployment.  The batch post-pass is gone
        (``docs/architecture.md``, "One ingest path").
    keep_raw_messages:
        Whether raw messages are *also* persisted in the ``messages`` table,
        alongside live consolidation (the paper's store keeps them).
    transport:
        ``"memory"`` (default) delivers datagrams through the in-memory
        channel -- lossy when ``loss_rate > 0``; ``"socket"`` sends genuine
        UDP datagrams over the loopback interface (``loss_rate`` is ignored
        -- losses, if any, come from the kernel).  Socket deployments are
        drained on every ``consolidate``/``snapshot``/``finalize`` and the
        sockets are released by
        :meth:`~repro.core.framework.SirenFramework.close`.
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
        (``transport="memory"`` only), store faults hook the store's write
        paths.
        ``None`` (default) injects nothing.
    rollups:
        Keep gold rollups (:mod:`repro.db.tiered`) in step with the
        ``processes`` table, answering the Table 2/3/4/8 queries in
        O(answer), byte-identical to the recompute from records.  Each
        flushed record then also pays one fold; ``False`` (default) skips it.
    """

    policy: CollectionPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    loss_rate: float = 0.0002
    max_datagram_size: int = MAX_DATAGRAM_SIZE
    store_path: str = ":memory:"
    seed: int = 42
    ingest_mode: str = "streaming"
    keep_raw_messages: bool = True
    transport: str = "memory"
    store_retry_attempts: int = 4
    quarantine_capacity: int = 256
    fault_plan: FaultPlan | None = None
    rollups: bool = False

    def validate(self) -> None:
        """Raise :class:`CollectionError` for a value no deployment can honour."""
        if self.ingest_mode != "streaming":
            raise CollectionError(
                f"unknown ingest_mode {self.ingest_mode!r}: ingest is streaming "
                'only (docs/architecture.md, "One ingest path")')
        if self.transport not in ("memory", "socket"):
            raise CollectionError(
                f"unknown transport {self.transport!r} "
                "(expected 'memory' or 'socket')")
        for knob, least in (("max_datagram_size", MIN_DATAGRAM_SIZE),
                            ("store_retry_attempts", 0), ("quarantine_capacity", 0)):
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
