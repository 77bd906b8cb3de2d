"""Shared machinery for the streaming-ingest tests.

The central fixture builds a *dual-ingest harness*: one channel carrying one
datagram stream (optionally lossy) delivered simultaneously to

* a classic batch receiver persisting raw messages, and
* the ingest path under test (incremental sink or sharded front).

Because both paths observe the exact same surviving datagrams, comparing the
batch consolidator's output with the streaming output pins record-for-record
equivalence without coordinating two RNGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.collector.records import InfoType, Layer, format_keyvalues
from repro.db.store import MessageStore, ProcessRecord
from repro.ingest import ShardedIngest, shard_of_datagram
from repro.transport.channel import InMemoryChannel, LossyChannel
from repro.transport.messages import Section, wire_header
from repro.transport.receiver import MessageReceiver
from repro.transport.sender import UDPSender
from repro.util.rng import SeededRNG


def record_key(record: ProcessRecord) -> tuple:
    """Every field of a record, for exact record-for-record comparison."""
    return tuple(getattr(record, name) for name in record.__dataclass_fields__)


def record_set(records: list[ProcessRecord]) -> list[tuple]:
    """Order-insensitive canonical form of a record list."""
    return sorted(record_key(record) for record in records)


@dataclass
class ComposedShards:
    """The reference for N worker processes: N in-process fronts in a row.

    Each datagram goes to the ``ShardedIngest(shards=1)`` that
    ``shard_of_datagram`` names (a datagram without a SIREN header is
    screened and counted here, as the real front does), ``finalize()``
    concatenates their records and ``statistics()`` sums their counters --
    what a worker-process front must equal record for record and counter
    for counter.
    """

    shards: int
    knobs: dict = field(default_factory=dict)
    fronts: list[ShardedIngest] = field(init=False)
    screened: int = 0

    def __post_init__(self) -> None:
        self.fronts = [ShardedIngest(MessageStore(), shards=1, **self.knobs)
                       for _ in range(self.shards)]

    def attach(self, channel) -> None:
        channel.subscribe(self.handle_datagram)

    def handle_datagram(self, datagram: bytes) -> None:
        shard = shard_of_datagram(datagram, self.shards)
        if shard is None:
            self.screened += 1
        else:
            self.fronts[shard].handle_datagram(datagram)

    def finalize(self) -> list[ProcessRecord]:
        return [record for front in self.fronts for record in front.finalize()]

    def statistics(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for front in self.fronts:
            for name, value in front.statistics().items():
                merged[name] = merged.get(name, 0) + value
        merged["shards"] = self.shards
        merged["decode_errors"] += self.screened
        return merged


@pytest.fixture()
def composed_shards():
    """Factory for :class:`ComposedShards` (``knobs`` go to every front)."""
    def build(shards: int, **knobs) -> ComposedShards:
        return ComposedShards(shards=shards, knobs=knobs)
    return build


@dataclass
class SyntheticWorkload:
    """Emits realistic process message bursts over a channel."""

    sender: UDPSender
    rng: SeededRNG
    processes_emitted: int = 0
    _running: list[tuple[bytes, list[Section]]] = field(default_factory=list)  # pending PROCENDs

    def emit_process(self, pid: int, *, time: int = 100) -> None:
        """One process: contiguous constructor burst now, PROCEND later."""
        category = self.rng.choice(["system", "user", "python"])
        exe = {"system": f"/usr/bin/tool{pid % 5}",
               "user": f"/project/p/u/app{pid % 3}",
               "python": "/usr/bin/python3.10"}[category]
        header = wire_header(str(1 + pid // 50), "0", pid, f"{pid:032x}", f"n{pid % 4}", time)
        msg = lambda info_type, content, layer=Layer.SELF: (layer, info_type, content)

        burst = [
            msg(InfoType.PROCINFO, format_keyvalues({
                "pid": pid, "ppid": 1, "uid": 1000 + pid % 7, "gid": 1000,
                "exe": exe, "category": category})),
            msg(InfoType.FILEMETA, format_keyvalues({"inode": pid, "size": 4096})),
            msg(InfoType.OBJECTS,
                "\n".join(f"/opt/cray/pe/lib64/lib{i}.so" for i in range(30))),
            msg(InfoType.OBJECTS_H, "3:abcdefghijklmnop:qrstuvwx"),
        ]
        if category in ("user", "python"):
            burst.append(msg(InfoType.MAPS, "\n".join(
                f"7f{i:010x}-7f{i + 1:010x} r-xp /lib64/lib{i}.so" for i in range(40))))
            burst.append(msg(InfoType.MAPS_H, "6:mapsmapsmaps:mapmap"))
        if category == "user":
            burst.extend([
                msg(InfoType.MODULES, "siren/0.1:cce/17.0.1"),
                msg(InfoType.MODULES_H, "3:modmodmod:mm"),
                msg(InfoType.COMPILERS, ";".join(
                    f"GCC: (SUSE Linux) 12.{i}.0" for i in range(12))),
                msg(InfoType.COMPILERS_H, "3:cccccccc:cc"),
                msg(InfoType.FILE_H, "96:filefilefile:ff"),
                msg(InfoType.STRINGS_H, "48:strstrstr:ss"),
                msg(InfoType.SYMBOLS_H, "24:symsymsym:yy"),
            ])
        if category == "python":
            burst.extend([
                msg(InfoType.PROCINFO,
                    format_keyvalues({"script": f"/users/u/run{pid % 3}.py"}),
                    layer=Layer.SCRIPT),
                msg(InfoType.FILEMETA, "inode=9|size=40", layer=Layer.SCRIPT),
                msg(InfoType.FILE_H, "3:scriptscript:pt", layer=Layer.SCRIPT),
            ])
        self.sender.send(header, burst)
        self._running.append((header, [msg(InfoType.PROCEND, format_keyvalues(
            {"end_time": time + 5, "exit_code": 0}))]))
        self.processes_emitted += 1

    def maybe_end_one(self) -> None:
        """End the oldest still-running process (if any)."""
        if self._running:
            self.sender.send(*self._running.pop(0))

    def end_all(self) -> None:
        """End every still-running process."""
        while self._running:
            self.maybe_end_one()

    def emit_campaign(self, processes: int) -> None:
        """Interleave process starts and ends, then end everything."""
        for pid in range(processes):
            self.emit_process(pid, time=100 + pid // 10)
            if self.rng.random() < 0.6:
                self.maybe_end_one()
        self.end_all()


@dataclass
class DualIngest:
    """One datagram stream, two ingest paths (batch reference + under-test)."""

    channel: LossyChannel | InMemoryChannel
    workload: SyntheticWorkload
    batch_store: MessageStore
    batch_receiver: MessageReceiver

    def batch_records(self) -> list[ProcessRecord]:
        from repro.postprocess.consolidate import Consolidator
        self.batch_receiver.flush()
        return Consolidator(self.batch_store).run()


@pytest.fixture()
def dual_ingest():
    """Factory: dual-ingest harness around a seeded (possibly lossy) channel.

    The caller attaches its own streaming path to ``harness.channel`` before
    emitting, then compares against ``harness.batch_records()``.
    """
    def build(*, loss_rate: float = 0.0, seed: int = 1,
              max_datagram_size: int = 300) -> DualIngest:
        if loss_rate > 0:
            channel = LossyChannel(loss_rate=loss_rate, rng=SeededRNG(seed))
        else:
            channel = InMemoryChannel()
        batch_store = MessageStore()
        batch_receiver = MessageReceiver(batch_store, batch_size=32)
        batch_receiver.attach(channel)
        # Small datagram budget so OBJECTS/MAPS/COMPILERS genuinely chunk.
        sender = UDPSender(channel, max_datagram_size=max_datagram_size)
        workload = SyntheticWorkload(sender=sender, rng=SeededRNG(seed * 31 + 7))
        return DualIngest(channel=channel, workload=workload,
                          batch_store=batch_store, batch_receiver=batch_receiver)

    return build
