"""The simulated network's faults: seeded, declarative, reproducible.

SIREN sends fire-and-forget UDP, and the only losses a real deployment sees
are the ones its network causes.  This module is that network's hostile
side, built by :class:`~repro.workload.campaign.DeploymentCampaign` around
the channel it hands the deployment:

* :class:`FaultPlan` -- a frozen description of every injected fault
  (channel drop/duplicate/reorder/corrupt/truncate/jitter, store
  transient-error/disk-full) plus one master seed;
* :class:`FaultyChannel` -- a channel decorator running every datagram
  through the seeded fault pipeline.  A drop-only one is the lossy link
  (``FaultPlan(channel=ChannelFaultProfile(drop_rate=loss))``);
* :class:`StoreFaultInjector` -- raising seeded ``sqlite3.OperationalError``
  faults through the store's injection hook, so the retry-with-jitter write
  paths are exercised for real.

Injection sites derive their RNG streams from the plan seed with stable
tags (:func:`repro.util.rng.derive_seed`), so two runs of the same plan over
the same traffic inject exactly the same faults at the same points: a chaos
failure reproduces with nothing more than the plan and the campaign seed.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field

from repro.db.store import MessageStore
from repro.transport.channel import Channel, DatagramCallback, InMemoryChannel
from repro.util.errors import ReproError
from repro.util.rng import SeededRNG, derive_seed


@dataclass(frozen=True)
class ChannelFaultProfile:
    """Datagram-level faults applied between the sender and the ingest object.

    All rates are independent per-datagram probabilities.  Faults compose in
    a fixed order -- drop, duplicate, then per-copy corrupt/truncate, then
    scheduling (reorder/jitter) -- so one profile can describe a genuinely
    hostile link.

    ``reorder_rate`` holds a datagram back and re-injects it after 1 to
    ``reorder_depth`` later sends (a displaced datagram -- the fault the
    streaming consolidator's idle grace has to absorb).  ``jitter_rate``
    instead starts buffering *everything* for ``jitter_depth`` sends and then
    releases the burst in order: delay spikes without reordering.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0     #: flip 1-3 random bits somewhere in the datagram
    truncate_rate: float = 0.0    #: cut the datagram to a random proper prefix
    reorder_rate: float = 0.0
    reorder_depth: int = 3
    jitter_rate: float = 0.0
    jitter_depth: int = 8

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate",
                     "truncate_rate", "reorder_rate", "jitter_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be a probability in [0, 1]")
        if self.reorder_depth < 1 or self.jitter_depth < 1:
            raise ReproError("reorder/jitter depths must be at least 1")

    @property
    def active(self) -> bool:
        """Whether any channel fault is actually switched on."""
        return any((self.drop_rate, self.duplicate_rate, self.corrupt_rate,
                    self.truncate_rate, self.reorder_rate, self.jitter_rate))


@dataclass(frozen=True)
class StoreFaultProfile:
    """Store-level faults, injected through ``MessageStore.fault_injector``.

    ``error_rate`` triggers a transient ``database is locked``
    :class:`sqlite3.OperationalError` on a write, ``error_burst`` times in a
    row (the retry path must outlast the burst).  ``disk_full_after`` makes
    every write from the N-th onward fail with the non-transient
    ``database or disk is full`` error, which retries correctly refuse to
    absorb.
    """

    error_rate: float = 0.0
    error_burst: int = 1
    disk_full_after: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ReproError("error_rate must be a probability in [0, 1]")
        if self.error_burst < 1:
            raise ReproError("error_burst must be at least 1")
        if self.disk_full_after is not None and self.disk_full_after < 0:
            raise ReproError("disk_full_after may not be negative")

    @property
    def active(self) -> bool:
        """Whether any store fault is actually switched on."""
        return self.error_rate > 0.0 or self.disk_full_after is not None


@dataclass(frozen=True)
class FaultPlan:
    """Everything a chaos run injects, reproducible from one seed."""

    seed: int = 7
    channel: ChannelFaultProfile = field(default_factory=ChannelFaultProfile)
    store: StoreFaultProfile = field(default_factory=StoreFaultProfile)

    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all."""
        return self.channel.active or self.store.active

    def channel_rng(self) -> SeededRNG:
        """The channel injection stream (stable across runs and processes)."""
        return SeededRNG(derive_seed(self.seed, "faults", "channel"))

    def store_rng(self) -> SeededRNG:
        """The store injection stream."""
        return SeededRNG(derive_seed(self.seed, "faults", "store"))


@dataclass
class FaultyChannel:
    """Wrap ``inner`` so every datagram runs the fault pipeline first.

    Every datagram passes drop, duplicate, per-copy corruption/truncation,
    then scheduling (reordering holdback or jitter bursting) before reaching
    the inner channel's subscribers.  All decisions come from :attr:`rng`,
    the plan's channel stream unless one is given; whoever owns the network
    may swap it between streams (the campaign gives each user profile its
    own loss stream).

    Scheduling faults hold datagrams back, so a stream passed through a plan
    with ``reorder_rate``/``jitter_rate`` must be :meth:`flush`\\ ed at end
    of stream, exactly like a real network finally delivering its queued
    packets.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    inner: Channel = field(default_factory=InMemoryChannel)
    #: the decision stream; ``None`` means ``plan.channel_rng()``
    rng: SeededRNG | None = None

    # channel-compatible counters
    datagrams_sent: int = field(init=False, default=0)
    bytes_sent: int = field(init=False, default=0)
    datagrams_dropped: int = field(init=False, default=0)
    # fault counters
    duplicated: int = field(init=False, default=0)
    corrupted: int = field(init=False, default=0)
    truncated: int = field(init=False, default=0)
    reordered: int = field(init=False, default=0)
    jitter_bursts: int = field(init=False, default=0)

    _profile: ChannelFaultProfile = field(init=False, repr=False)
    #: Reordered datagrams in flight: [sends-remaining, datagram] pairs.
    _held: list = field(init=False, default_factory=list, repr=False)
    _burst_buffer: list = field(init=False, default_factory=list, repr=False)
    _burst_remaining: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = self.plan.channel_rng()
        self._profile = self.plan.channel

    def subscribe(self, callback: DatagramCallback) -> None:
        """Register a delivery callback on the inner channel."""
        self.inner.subscribe(callback)

    def send(self, datagram: bytes) -> bool:
        """Run one datagram through the fault pipeline; False if dropped."""
        profile, rng = self._profile, self.rng
        self.datagrams_sent += 1
        self.bytes_sent += len(datagram)

        dropped = profile.drop_rate > 0 and rng.random() < profile.drop_rate
        if dropped:
            self.datagrams_dropped += 1
        else:
            copies = [datagram]
            if profile.duplicate_rate > 0 and rng.random() < profile.duplicate_rate:
                copies.append(datagram)
                self.duplicated += 1
            for copy in copies:
                copy = self._maybe_mangle(copy)
                if profile.reorder_rate > 0 and rng.random() < profile.reorder_rate:
                    self.reordered += 1
                    self._held.append([rng.randint(1, profile.reorder_depth), copy])
                else:
                    self._deliver(copy)
            if (profile.jitter_rate > 0 and self._burst_remaining == 0
                    and rng.random() < profile.jitter_rate):
                # A delay spike: buffer everything for the next jitter_depth
                # sends, then release the burst in order.
                self.jitter_bursts += 1
                self._burst_remaining = profile.jitter_depth
        self._tick()
        return not dropped

    def _maybe_mangle(self, datagram: bytes) -> bytes:
        """Apply corruption and truncation draws to one delivery copy."""
        profile, rng = self._profile, self.rng
        if (profile.corrupt_rate > 0 and len(datagram) > 0
                and rng.random() < profile.corrupt_rate):
            self.corrupted += 1
            mutable = bytearray(datagram)
            for _ in range(rng.randint(1, 3)):
                mutable[rng.randint(0, len(mutable) - 1)] ^= 1 << rng.randint(0, 7)
            datagram = bytes(mutable)
        if (profile.truncate_rate > 0 and len(datagram) > 0
                and rng.random() < profile.truncate_rate):
            self.truncated += 1
            datagram = datagram[:rng.randint(0, len(datagram) - 1)]
        return datagram

    def _deliver(self, datagram: bytes) -> None:
        if self._burst_remaining > 0:
            self._burst_buffer.append(datagram)
        else:
            self.inner.send(datagram)

    def _tick(self) -> None:
        """One send elapsed: age holdbacks, release what is due."""
        if self._held:
            due: list[bytes] = []
            still_held = []
            for entry in self._held:
                entry[0] -= 1
                (due.append(entry[1]) if entry[0] <= 0 else still_held.append(entry))
            self._held = still_held
            for datagram in due:
                self._deliver(datagram)
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            if self._burst_remaining == 0 and self._burst_buffer:
                buffered, self._burst_buffer = self._burst_buffer, []
                for datagram in buffered:
                    self.inner.send(datagram)

    def flush(self) -> int:
        """Deliver everything still held back; returns how many datagrams."""
        released = 0
        while self._held:
            released += 1
            self.inner.send(self._held.pop(0)[1])
        self._burst_remaining = 0
        while self._burst_buffer:
            released += 1
            self.inner.send(self._burst_buffer.pop(0))
        return released

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of datagrams dropped by the fault pipeline so far."""
        if self.datagrams_sent == 0:
            return 0.0
        return self.datagrams_dropped / self.datagrams_sent

    def fault_counters(self) -> dict[str, int]:
        """Everything the pipeline did, for campaign results and tests."""
        return {
            "datagrams_sent": self.datagrams_sent,
            "dropped": self.datagrams_dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "truncated": self.truncated,
            "reordered": self.reordered,
            "jitter_bursts": self.jitter_bursts,
        }


@dataclass
class StoreFaultInjector:
    """Raise seeded ``OperationalError`` faults from a store's write paths.

    Installed as :attr:`~repro.db.store.MessageStore.fault_injector`, it is
    called with the operation name at the top of every write transaction,
    and whatever it raises takes exactly the path a genuine SQLite failure
    would: transient ``database is locked`` errors engage the store's
    retry-with-jitter loop, the non-transient ``database or disk is full``
    fails fast.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)

    writes_seen: int = field(init=False, default=0)
    transient_raised: int = field(init=False, default=0)
    disk_full_raised: int = field(init=False, default=0)

    _rng: SeededRNG = field(init=False, repr=False)
    _profile: StoreFaultProfile = field(init=False, repr=False)
    _burst_left: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._rng = self.plan.store_rng()
        self._profile = self.plan.store

    def install(self, store: MessageStore) -> "StoreFaultInjector":
        """Attach this injector to ``store``; returns self for chaining."""
        store.fault_injector = self
        return self

    def __call__(self, operation: str) -> None:
        """The hook the store invokes before each write transaction."""
        profile = self._profile
        self.writes_seen += 1
        if (profile.disk_full_after is not None
                and self.writes_seen > profile.disk_full_after):
            self.disk_full_raised += 1
            raise sqlite3.OperationalError("database or disk is full")
        if self._burst_left > 0:
            # The retry attempts that follow a burst's first failure carry
            # the rest of it; the attempt after its last failure draws
            # nothing, so bursts never chain past ``error_burst`` in a row.
            self._burst_left -= 1
            if self._burst_left == 0:
                return
        elif profile.error_rate > 0 and self._rng.random() < profile.error_rate:
            self._burst_left = profile.error_burst
        else:
            return
        self.transient_raised += 1
        raise sqlite3.OperationalError("database is locked")
