"""The store's write retry: the backoff schedule and the loop that uses it."""

import random
import sqlite3
from unittest import mock

import pytest

from repro.db import store as store_module
from repro.db.store import (
    RETRY_ATTEMPTS,
    RETRY_BASE_DELAY,
    RETRY_GROWTH,
    RETRY_MAX_DELAY,
    MessageStore,
    retry_delay,
)
from repro.transport.messages import InfoType, Layer, UDPMessage

from oracles.consolidate import raw_messages
from oracles.wire import rows

_MESSAGE = UDPMessage(jobid="1", stepid="0", pid=1, path_hash="h", host="n1", time=1,
                      layer=Layer.SELF, info_type=InfoType.PROCINFO, content="x")


def _failing_store(error: str, failures: int) -> tuple[MessageStore, list[str]]:
    """A store whose first ``failures`` write attempts raise ``error``, and
    the operations it attempted."""
    store, calls = MessageStore(), []
    store._sleep = lambda _: None

    def injector(operation):
        calls.append(operation)
        if len(calls) <= failures:
            raise sqlite3.OperationalError(error)

    store.fault_injector = injector
    return store, calls


class TestDelaySchedule:
    def test_exponential_growth_capped(self):
        delays = [retry_delay(attempt) for attempt in range(8)]
        assert delays == [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]

    def test_jitter_stays_within_band_and_cap(self):
        rng = random.Random(13)
        for attempt in range(RETRY_ATTEMPTS):
            nominal = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * RETRY_GROWTH ** attempt)
            for _ in range(50):
                delay = retry_delay(attempt, rng)
                assert 0.5 * nominal <= delay <= min(RETRY_MAX_DELAY, 1.5 * nominal)

    def test_no_rng_means_deterministic_nominal(self):
        assert retry_delay(0) == retry_delay(0) == RETRY_BASE_DELAY

    def test_the_store_retries(self):
        """A zero budget is how retrying is switched off, and the store's is
        not zero."""
        assert RETRY_ATTEMPTS > 0

    def test_cap_applies_before_and_after_jitter(self):
        # From attempt 6 the nominal is capped; +jitter on it is capped again.
        rng = random.Random(7)
        assert all(retry_delay(attempt, rng) <= RETRY_MAX_DELAY
                   for attempt in range(6, 9) for _ in range(100))

    @mock.patch.object(store_module, "RETRY_JITTER", 1.0)
    def test_full_jitter_never_escapes_the_cap(self):
        rng = random.Random(99)
        for attempt in range(8):
            for _ in range(200):
                assert 0.0 <= retry_delay(attempt, rng) <= RETRY_MAX_DELAY

    @mock.patch.multiple(store_module, RETRY_BASE_DELAY=0.08, RETRY_GROWTH=0.5)
    def test_the_schedule_is_read_at_call_time(self):
        assert [retry_delay(attempt) for attempt in range(3)] == [0.08, 0.04, 0.02]


class TestStorePassThrough:
    """The store's retry loop honours the budget's edges."""

    @mock.patch.object(store_module, "RETRY_ATTEMPTS", 8)
    def test_non_retryable_error_passes_through_untouched(self):
        store, calls = _failing_store("database or disk is full", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="full"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 0     # not a single retry was burned
        assert len(calls) == 1              # and the write ran exactly once

    @mock.patch.object(store_module, "RETRY_ATTEMPTS", 0)
    def test_zero_attempt_budget_propagates_first_transient(self):
        store, calls = _failing_store("database is locked", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 0
        assert len(calls) == 1

    @mock.patch.object(store_module, "RETRY_ATTEMPTS", 1)
    def test_one_attempt_budget_retries_exactly_once(self):
        store, calls = _failing_store("database is locked", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 1
        assert len(calls) == 2

    @mock.patch.object(store_module, "RETRY_ATTEMPTS", 3)
    def test_transient_clears_within_budget_and_write_lands(self):
        store, _ = _failing_store("database is locked", failures=2)
        assert store.insert_rows(rows([_MESSAGE])) == 1
        assert store.write_retries == 2
        assert len(raw_messages(store)) == 1

    def test_the_sleeps_follow_the_schedule(self):
        store, _ = _failing_store("database is locked", failures=RETRY_ATTEMPTS)
        slept = []
        store._sleep = slept.append
        assert store.insert_rows(rows([_MESSAGE])) == 1
        rng = random.Random(0xC0FFEE)
        assert slept == [retry_delay(attempt, rng) for attempt in range(RETRY_ATTEMPTS)]
