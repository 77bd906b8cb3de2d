"""Bounded retry with exponential backoff and deterministic jitter.

The store's write paths must survive *transient* faults -- a WAL lock held
by a concurrent reader -- without either hammering the contended resource in
a tight loop or retrying in lockstep with every other writer.
:class:`RetryPolicy` captures the standard answer: exponentially growing
delays, capped, with a jitter fraction drawn from a seeded RNG so chaos runs
stay reproducible.

The policy is pure configuration plus delay arithmetic; callers own the
actual loop (what counts as retryable differs per subsystem) and the sleep
function stays injectable so tests never wait on a real clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, to retry a transient failure.

    Parameters
    ----------
    attempts:
        Retries *after* the first try (0 disables retrying entirely: the
        first failure propagates).
    base_delay:
        Seconds slept before the first retry.
    growth:
        Multiplier applied to the delay after every retry (exponential
        backoff).
    max_delay:
        Upper bound on any single sleep, jitter included.
    jitter:
        Fraction of the nominal delay added/subtracted uniformly at random
        (0.5 means the actual sleep lands in ``[0.5d, 1.5d]``), decorrelating
        retry storms across shards.
    """

    attempts: int = 4
    base_delay: float = 0.005
    growth: float = 2.0
    max_delay: float = 0.25
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ReproError("retry attempts may not be negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ReproError("retry delays may not be negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("retry jitter must be a fraction in [0, 1]")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        nominal = min(self.max_delay, self.base_delay * self.growth ** attempt)
        if rng is not None and self.jitter > 0:
            nominal *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(self.max_delay, nominal)
