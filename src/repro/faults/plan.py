"""The :class:`FaultPlan`: one seeded, declarative description of a chaos run.

Every fault the injection layer can produce -- datagram drop / duplication /
reordering / corruption / truncation / jitter at the channel, transient
``OperationalError`` and disk-full at the store -- is configured here as
plain frozen dataclasses plus one master seed.  Injection sites derive
their RNG streams from that seed with stable tags
(:func:`repro.util.rng.derive_seed`), so two runs of the same plan over the
same traffic inject *exactly* the same faults at the same points: a chaos
failure reproduces with nothing more than the plan and the campaign seed.

The plan is pure data.  The active machinery lives next door:
:class:`~repro.faults.channel.FaultyChannel` applies the channel profile,
:class:`~repro.faults.store.StoreFaultInjector` plugs into
:attr:`~repro.db.store.MessageStore.fault_injector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

