"""Deterministic random-number utilities.

Every stochastic component of the reproduction (corpus builder, workload
campaign, lossy UDP channel) draws from a :class:`SeededRNG`.  The class wraps
both :class:`random.Random` (for convenient discrete choices) and
:class:`numpy.random.Generator` (for vectorised draws) seeded from the same
integer, and supports cheap forking so that independent subsystems get
decorrelated, reproducible streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Mixing constant (64-bit golden-ratio) used when deriving child seeds.
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    """One step of the splitmix64 sequence; used to derive fork seeds."""
    state = (state + _GOLDEN64) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: str) -> int:
    """Derive a child seed from ``seed`` and a sequence of string tags.

    The derivation is order-sensitive and stable across processes and Python
    versions (it does not use :func:`hash`, which is salted).
    """
    state = seed & _MASK64
    for tag in tags:
        for byte in tag.encode("utf-8"):
            state = _splitmix64(state ^ byte)
    return _splitmix64(state)


@dataclass
class SeededRNG:
    """A reproducible random source shared by the simulator and workloads.

    Parameters
    ----------
    seed:
        Master seed.  Two ``SeededRNG`` instances built with the same seed
        produce identical streams.
    """

    seed: int = 0
    _py: random.Random = field(init=False, repr=False)
    _np: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._py = random.Random(self.seed)
        self._np = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # forking
    # ------------------------------------------------------------------ #
    def fork(self, *tags: str) -> "SeededRNG":
        """Return a new, independent RNG derived from this one.

        ``tags`` name the consumer (e.g. ``rng.fork("corpus", "lammps")``) so
        that adding a new consumer elsewhere does not perturb existing
        streams.
        """
        return SeededRNG(derive_seed(self.seed, *tags))

    # ------------------------------------------------------------------ #
    # scalar draws
    # ------------------------------------------------------------------ #
    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._py.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._py.random()

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._py.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given relative weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        return self._py.choices(items, weights=weights, k=1)[0]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements (k may not exceed ``len(items)``)."""
        return self._py.sample(list(items), k)

    def bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        return self._np.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    def numpy(self) -> np.random.Generator:
        """Expose the underlying numpy generator for vectorised draws."""
        return self._np

