"""A channel decorator that injects seeded transport faults.

:class:`FaultyChannel` sits between the sender and any real channel
(in-memory, lossy, socket): every datagram passes through the fault pipeline
-- drop, duplicate, per-copy corruption/truncation, then scheduling
(reordering holdback or jitter bursting) -- before reaching the inner
channel's subscribers.  All decisions come from one :class:`SeededRNG`
derived from the plan seed, so a chaos run replays bit-for-bit.

Scheduling faults hold datagrams back, so a stream passed through a plan
with ``reorder_rate``/``jitter_rate`` must be :meth:`flush`\\ ed at end of
stream (the campaign runner does this before finalizing ingest) -- exactly
like a real network finally delivering its queued packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import ChannelFaultProfile, FaultPlan
from repro.transport.channel import Channel, DatagramCallback, InMemoryChannel
from repro.util.rng import SeededRNG


@dataclass
class FaultyChannel:
    """Wrap ``inner`` so every datagram runs the fault pipeline first."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    inner: Channel = field(default_factory=InMemoryChannel)

    # channel-compatible counters
    datagrams_sent: int = 0
    bytes_sent: int = 0
    datagrams_dropped: int = 0
    # fault counters
    duplicated: int = 0
    corrupted: int = 0
    truncated: int = 0
    reordered: int = 0
    jitter_bursts: int = 0

    _rng: SeededRNG = field(init=False, repr=False)
    _profile: ChannelFaultProfile = field(init=False, repr=False)
    #: Reordered datagrams in flight: [sends-remaining, datagram] pairs.
    _held: list = field(init=False, default_factory=list, repr=False)
    _burst_buffer: list = field(init=False, default_factory=list, repr=False)
    _burst_remaining: int = 0

    def __post_init__(self) -> None:
        self._rng = self.plan.channel_rng()
        self._profile = self.plan.channel

    # ------------------------------------------------------------------ #
    # Channel protocol
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: DatagramCallback) -> None:
        """Register a delivery callback on the inner channel."""
        self.inner.subscribe(callback)

    def send(self, datagram: bytes) -> bool:
        """Run one datagram through the fault pipeline; False if dropped."""
        profile, rng = self._profile, self._rng
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

    # ------------------------------------------------------------------ #
    # pipeline stages
    # ------------------------------------------------------------------ #
    def _maybe_mangle(self, datagram: bytes) -> bytes:
        """Apply corruption and truncation draws to one delivery copy."""
        profile, rng = self._profile, self._rng
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

    # ------------------------------------------------------------------ #
    # end of stream / reporting
    # ------------------------------------------------------------------ #
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
        """Everything the pipeline did, for benches and campaign results."""
        return {
            "datagrams_sent": self.datagrams_sent,
            "dropped": self.datagrams_dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "truncated": self.truncated,
            "reordered": self.reordered,
            "jitter_bursts": self.jitter_bursts,
        }
