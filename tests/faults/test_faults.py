"""The fault-injection layer itself: plans, the faulty channel, store faults.

Everything here must be exactly reproducible from the plan seed -- that is
the property that turns chaos testing into regression testing.
"""

import sqlite3
from unittest import mock

import pytest

from repro.db.store import RETRY_ATTEMPTS, MessageStore, is_transient_sqlite_error
from repro.hpcsim.faults import (
    ChannelFaultProfile,
    FaultPlan,
    FaultyChannel,
    StoreFaultInjector,
    StoreFaultProfile,
)
from repro.transport.channel import InMemoryChannel
from repro.transport.messages import InfoType, Layer, UDPMessage
from repro.util.errors import ReproError
from repro.util.rng import SeededRNG

from oracles.conservation import check_channel, preset_plans
from oracles.consolidate import raw_messages
from oracles.wire import encode, rows


def _datagrams(count: int) -> list[bytes]:
    return [encode(UDPMessage(jobid="1", stepid="0", pid=pid, path_hash=f"{pid:032x}",
                              host="n1", time=100, layer=Layer.SELF,
                              info_type=InfoType.PROCINFO, content=f"c{pid}"))
            for pid in range(count)]


def _run_channel(plan: FaultPlan, datagrams: list[bytes]):
    channel = FaultyChannel(plan=plan, inner=InMemoryChannel())
    delivered: list[bytes] = []
    channel.subscribe(delivered.append)
    for datagram in datagrams:
        channel.send(datagram)
    channel.flush()
    return channel, delivered


class TestFaultPlan:
    def test_rates_are_validated(self):
        with pytest.raises(ReproError):
            ChannelFaultProfile(drop_rate=1.5)
        with pytest.raises(ReproError):
            StoreFaultProfile(error_rate=-0.1)

    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(channel=ChannelFaultProfile(drop_rate=0.1)).active
        assert FaultPlan(store=StoreFaultProfile(disk_full_after=3)).active

    def test_presets_cover_the_degradation_axes(self):
        plans = preset_plans(seed=11)
        assert not plans["baseline"].active
        assert plans["loss-20pct"].channel.drop_rate == 0.20
        assert all(plan.seed == 11 for plan in plans.values())
        # every non-baseline preset actually injects something
        assert all(plan.active for name, plan in plans.items() if name != "baseline")


class TestFaultyChannel:
    def test_same_plan_same_faults(self):
        plan = FaultPlan(seed=99, channel=ChannelFaultProfile(
            drop_rate=0.05, duplicate_rate=0.1, corrupt_rate=0.05,
            truncate_rate=0.05, reorder_rate=0.05, jitter_rate=0.02))
        datagrams = _datagrams(500)
        first_channel, first = _run_channel(plan, datagrams)
        second_channel, second = _run_channel(plan, datagrams)
        assert first == second
        assert first_channel.fault_counters() == second_channel.fault_counters()

    def test_different_seed_different_faults(self):
        datagrams = _datagrams(500)
        profile = ChannelFaultProfile(drop_rate=0.1)
        _, first = _run_channel(FaultPlan(seed=1, channel=profile), datagrams)
        _, second = _run_channel(FaultPlan(seed=2, channel=profile), datagrams)
        assert first != second

    def test_conservation_drop_and_duplicate(self):
        plan = FaultPlan(seed=5, channel=ChannelFaultProfile(
            drop_rate=0.1, duplicate_rate=0.1))
        datagrams = _datagrams(1000)
        channel, delivered = _run_channel(plan, datagrams)
        assert check_channel(channel) == []
        assert len(delivered) == channel.inner.datagrams_sent
        assert 0.05 < channel.observed_loss_rate < 0.2

    def test_order_preserving_profiles_preserve_order(self):
        plan = FaultPlan(seed=3, channel=ChannelFaultProfile(
            drop_rate=0.2, jitter_rate=0.1))
        datagrams = _datagrams(400)
        _, delivered = _run_channel(plan, datagrams)
        positions = {datagram: index for index, datagram in enumerate(datagrams)}
        indices = [positions[datagram] for datagram in delivered]
        assert indices == sorted(indices)

    def test_reordering_displaces_but_loses_nothing(self):
        plan = FaultPlan(seed=8, channel=ChannelFaultProfile(reorder_rate=0.2))
        datagrams = _datagrams(300)
        channel, delivered = _run_channel(plan, datagrams)
        assert sorted(delivered) == sorted(datagrams)  # nothing lost
        assert channel.reordered > 0
        positions = {datagram: index for index, datagram in enumerate(datagrams)}
        indices = [positions[datagram] for datagram in delivered]
        assert indices != sorted(indices)  # something actually moved

    def test_flush_releases_holdbacks(self):
        plan = FaultPlan(seed=4, channel=ChannelFaultProfile(
            reorder_rate=1.0, reorder_depth=1000))
        channel = FaultyChannel(plan=plan, inner=InMemoryChannel())
        delivered: list[bytes] = []
        channel.subscribe(delivered.append)
        for datagram in _datagrams(10):
            channel.send(datagram)
        held = 10 - len(delivered)
        assert held > 0
        assert channel.flush() == held
        assert len(delivered) == 10


def _message(pid: int = 1) -> UDPMessage:
    return UDPMessage(jobid="1", stepid="0", pid=pid, path_hash="h", host="n1", time=1,
                      layer=Layer.SELF, info_type=InfoType.PROCINFO, content="x")


def _link(loss_rate: float, rng: SeededRNG | None = None) -> FaultyChannel:
    """The network's loss stage: a drop-only faulty channel."""
    return FaultyChannel(FaultPlan(channel=ChannelFaultProfile(drop_rate=loss_rate)),
                         rng=rng)


class TestDropOnlyLink:
    def test_zero_loss_delivers_everything(self):
        channel = _link(0.0)
        seen: list[bytes] = []
        channel.subscribe(seen.append)
        for index in range(100):
            channel.send(bytes([index]))
        assert len(seen) == 100
        assert channel.observed_loss_rate == 0.0

    def test_full_loss_drops_everything(self):
        channel = _link(1.0)
        seen: list[bytes] = []
        channel.subscribe(seen.append)
        for index in range(50):
            assert not channel.send(bytes([index]))
        assert seen == []
        assert channel.datagrams_dropped == 50

    def test_loss_rate_approximate(self):
        channel = _link(0.2, SeededRNG(3))
        for _ in range(5000):
            channel.send(b"x")
        assert 0.15 < channel.observed_loss_rate < 0.25

    @pytest.mark.parametrize("seed", [0, 11])
    def test_one_draw_per_datagram_drops_below_the_rate(self, seed):
        """Each datagram costs one ``rng.random()`` draw and is dropped below
        the rate, on whatever stream :attr:`rng` holds (the campaign swaps it
        per profile)."""
        channel = _link(0.3)
        for stream in (seed, seed + 1):
            channel.rng, draws = SeededRNG(stream), SeededRNG(stream)
            assert [channel.send(b"x") for _ in range(200)] == \
                [draws.random() >= 0.3 for _ in range(200)]
        assert channel.datagrams_dropped == 400 - channel.inner.datagrams_sent

    def test_deterministic_given_the_plan_seed(self):
        """Handed no ``rng``, the link draws from ``plan.channel_rng()``, so
        links built from equal plans drop the same datagrams."""
        plan = FaultPlan(seed=11, channel=ChannelFaultProfile(drop_rate=0.3))
        first, second = FaultyChannel(plan), FaultyChannel(plan)
        pattern = [first.send(b"x") for _ in range(200)]
        assert pattern == [second.send(b"x") for _ in range(200)]
        assert any(pattern) and not all(pattern)

    def test_invalid_loss_rate(self):
        with pytest.raises(ReproError):
            _link(1.5)


class TestStoreFaults:
    def test_transient_classification(self):
        assert is_transient_sqlite_error(sqlite3.OperationalError("database is locked"))
        assert is_transient_sqlite_error(sqlite3.OperationalError("database table is busy"))
        assert not is_transient_sqlite_error(
            sqlite3.OperationalError("database or disk is full"))

    @mock.patch("repro.db.store.RETRY_ATTEMPTS", 6)
    def test_retry_absorbs_bursts_shorter_than_the_budget(self):
        plan = FaultPlan(seed=21, store=StoreFaultProfile(error_rate=0.1,
                                                          error_burst=2))
        store = MessageStore()
        store._sleep = lambda _: None  # keep the test instant
        injector = StoreFaultInjector(plan).install(store)
        for pid in range(50):
            store.insert_rows(rows([_message(pid)]))
        assert len(raw_messages(store)) == 50       # every write eventually landed
        assert injector.transient_raised > 0     # and faults genuinely fired
        assert store.write_retries == injector.transient_raised

    @pytest.mark.parametrize("burst", range(1, RETRY_ATTEMPTS + 1))
    def test_a_burst_within_the_budget_never_chains_into_the_next(self, burst):
        """Even when every write draws a burst, the attempt after a burst's
        last failure lands: ``error_burst`` failures in a row, never more."""
        plan = FaultPlan(seed=7, store=StoreFaultProfile(error_rate=1.0,
                                                         error_burst=burst))
        store = MessageStore()
        store._sleep = lambda _: None
        injector = StoreFaultInjector(plan).install(store)
        for pid in range(20):
            store.insert_rows(rows([_message(pid)]))
        assert len(raw_messages(store)) == 20
        assert injector.transient_raised == store.write_retries == 20 * burst

    @mock.patch("repro.db.store.RETRY_ATTEMPTS", 2)
    def test_burst_longer_than_budget_propagates(self):
        plan = FaultPlan(seed=21, store=StoreFaultProfile(error_rate=1.0,
                                                          error_burst=10))
        store = MessageStore()
        store._sleep = lambda _: None
        StoreFaultInjector(plan).install(store)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_rows(rows([_message()]))

    @mock.patch("repro.db.store.RETRY_ATTEMPTS", 8)
    def test_disk_full_is_never_retried(self):
        plan = FaultPlan(seed=21, store=StoreFaultProfile(disk_full_after=0))
        store = MessageStore()
        store._sleep = lambda _: None
        injector = StoreFaultInjector(plan).install(store)
        with pytest.raises(sqlite3.OperationalError, match="full"):
            store.insert_rows(rows([_message()]))
        assert injector.disk_full_raised == 1
        assert store.write_retries == 0  # non-transient: not a single retry

    @mock.patch("repro.db.store.RETRY_ATTEMPTS", 4)
    def test_injection_is_deterministic(self):
        def run() -> int:
            plan = FaultPlan(seed=33, store=StoreFaultProfile(error_rate=0.2))
            store = MessageStore()
            store._sleep = lambda _: None
            injector = StoreFaultInjector(plan).install(store)
            for pid in range(40):
                store.insert_rows(rows([_message(pid)]))
            return injector.transient_raised

        assert run() == run()
