"""Deterministic store-fault injection for chaos runs.

:class:`StoreFaultInjector` plugs into
:attr:`repro.db.store.MessageStore.fault_injector`: the store calls it (with
the operation name) at the top of every write transaction, and whatever it
raises takes exactly the path a genuine SQLite failure would -- transient
``database is locked`` errors engage the store's retry-with-jitter loop,
the non-transient ``database or disk is full`` fails fast.

Injection draws come from the plan's seeded store stream, so the same plan
over the same write sequence produces the same faults.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field

from repro.db.store import MessageStore
from repro.faults.plan import FaultPlan, StoreFaultProfile
from repro.util.rng import SeededRNG


@dataclass
class StoreFaultInjector:
    """Raise seeded ``OperationalError`` faults from a store's write paths."""

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
            self._burst_left -= 1
            self.transient_raised += 1
            raise sqlite3.OperationalError("database is locked")
        if profile.error_rate > 0 and self._rng.random() < profile.error_rate:
            # First failure of a burst: the remaining burst_left failures hit
            # the retry attempts that follow, exercising the backoff loop.
            self._burst_left = profile.error_burst - 1
            self.transient_raised += 1
            raise sqlite3.OperationalError("database is locked")
