"""Shared utilities: deterministic RNG, text tables, and error types.

These helpers are deliberately small and dependency-free so that every other
subpackage (hashing, ELF, simulator, analysis) can rely on them without
introducing import cycles.
"""

from repro.util.errors import (
    CollectionError,
    CorpusError,
    IngestError,
    ReproError,
    SimulationError,
    TransportError,
)
from repro.util.rng import SeededRNG
from repro.util.tables import TextTable, format_count

__all__ = [
    "CollectionError",
    "CorpusError",
    "IngestError",
    "ReproError",
    "SimulationError",
    "TransportError",
    "SeededRNG",
    "TextTable",
    "format_count",
]
