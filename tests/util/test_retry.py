"""RetryPolicy: the backoff schedule behind store writes and worker restarts."""

import random
import sqlite3
from unittest import mock

import pytest

from repro.db.store import MessageStore
from repro.transport.messages import InfoType, Layer, UDPMessage
from repro.util.errors import ReproError
from repro.util.retry import RetryPolicy

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
        policy = RetryPolicy(attempts=10, base_delay=0.01, growth=2.0,
                             max_delay=0.05, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(6)]
        assert delays[:3] == [0.01, 0.02, 0.04]
        assert all(delay == 0.05 for delay in delays[3:])

    def test_jitter_stays_within_band_and_cap(self):
        policy = RetryPolicy(attempts=4, base_delay=0.01, growth=2.0,
                             max_delay=0.25, jitter=0.5)
        rng = random.Random(13)
        for attempt in range(4):
            nominal = min(policy.max_delay,
                          policy.base_delay * policy.growth ** attempt)
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert 0.5 * nominal <= delay <= min(policy.max_delay, 1.5 * nominal)

    def test_no_rng_means_deterministic_nominal(self):
        policy = RetryPolicy(attempts=2, base_delay=0.02, jitter=0.9)
        assert policy.delay(0) == 0.02

    def test_no_retry_sentinel(self):
        """No named sentinel: a zero budget is how retrying is switched off,
        and the store's default budget is not zero."""
        assert RetryPolicy(attempts=0).attempts == 0 < RetryPolicy().attempts


class TestEdgeCases:
    def test_zero_attempts_is_valid_and_means_no_retry(self):
        policy = RetryPolicy(attempts=0)
        assert policy.attempts == 0
        # the delay schedule is still well-defined (callers may pre-compute)
        assert policy.delay(0) == policy.base_delay

    def test_one_attempt_sleeps_exactly_base_delay(self):
        policy = RetryPolicy(attempts=1, base_delay=0.03, growth=7.0,
                             jitter=0.0)
        assert policy.delay(0) == 0.03

    def test_negative_attempts_rejected(self):
        with pytest.raises(ReproError, match="negative"):
            RetryPolicy(attempts=-1)

    def test_negative_delays_rejected(self):
        with pytest.raises(ReproError, match="negative"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ReproError, match="negative"):
            RetryPolicy(max_delay=-0.1)

    def test_jitter_outside_unit_interval_rejected(self):
        with pytest.raises(ReproError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ReproError, match="jitter"):
            RetryPolicy(jitter=-0.1)

    def test_full_jitter_never_escapes_the_cap(self):
        policy = RetryPolicy(attempts=8, base_delay=0.1, growth=10.0,
                             max_delay=0.2, jitter=1.0)
        rng = random.Random(99)
        for attempt in range(8):
            for _ in range(200):
                delay = policy.delay(attempt, rng)
                assert 0.0 <= delay <= policy.max_delay

    def test_cap_applies_before_and_after_jitter(self):
        # nominal is capped first, then the jittered value is capped again:
        # even +jitter on an at-cap nominal cannot exceed max_delay.
        policy = RetryPolicy(attempts=1, base_delay=1.0, growth=2.0,
                             max_delay=0.5, jitter=0.5)
        rng = random.Random(7)
        assert all(policy.delay(0, rng) <= 0.5 for _ in range(100))

    def test_growth_below_one_decays(self):
        policy = RetryPolicy(attempts=3, base_delay=0.08, growth=0.5,
                             max_delay=1.0, jitter=0.0)
        assert [policy.delay(a) for a in range(3)] == [0.08, 0.04, 0.02]


class TestStorePassThrough:
    """The store's retry loop honours the policy's edges."""

    @mock.patch("repro.db.store.WRITE_RETRY", RetryPolicy(attempts=8, base_delay=0.0))
    def test_non_retryable_error_passes_through_untouched(self):
        store, calls = _failing_store("database or disk is full", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="full"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 0     # not a single retry was burned
        assert len(calls) == 1              # and the write ran exactly once

    @mock.patch("repro.db.store.WRITE_RETRY", RetryPolicy(attempts=0))
    def test_zero_attempt_budget_propagates_first_transient(self):
        store, calls = _failing_store("database is locked", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 0
        assert len(calls) == 1

    @mock.patch("repro.db.store.WRITE_RETRY", RetryPolicy(attempts=1, base_delay=0.0))
    def test_one_attempt_budget_retries_exactly_once(self):
        store, calls = _failing_store("database is locked", failures=99)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_rows(rows([_MESSAGE]))
        assert store.write_retries == 1
        assert len(calls) == 2

    @mock.patch("repro.db.store.WRITE_RETRY", RetryPolicy(attempts=3, base_delay=0.0))
    def test_transient_clears_within_budget_and_write_lands(self):
        store, _ = _failing_store("database is locked", failures=2)
        assert store.insert_rows(rows([_MESSAGE])) == 1
        assert store.write_retries == 2
        assert store.message_count() == 1
