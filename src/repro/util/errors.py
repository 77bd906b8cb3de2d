"""Exception hierarchy for the SIREN reproduction.

A single root exception (:class:`ReproError`) makes it easy for callers to
catch "anything this library raised" without also swallowing programming
errors such as ``TypeError``.  Each subsystem gets its own subclass so tests
can assert on the precise failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Raised by the HPC simulator (filesystem, linker, scheduler, cluster)."""


class CorpusError(ReproError):
    """Raised when building or querying the synthetic software corpus."""


class CollectionError(ReproError):
    """Raised by the SIREN collector.

    Note that the collector itself is designed to *fail gracefully*: errors
    during hooked collection are caught and turned into missing data rather
    than propagated into the "user process".  ``CollectionError`` is used for
    programming/configuration mistakes (e.g. registering a hook twice), not
    for per-process collection failures.
    """


class TransportError(ReproError):
    """Raised by the UDP-style transport and ingest layers.

    Covers configuration mistakes (bad loss rates, a shard count other
    than one) and undecodable datagrams, which the ingest object counts and
    quarantines rather than raises.  A store write that fails at runtime
    raises the store's own error (``sqlite3.OperationalError``) once its
    retries are spent.
    """


class StoreError(ReproError):
    """Raised by the gold rollups module (:mod:`repro.db.tiered`) when
    asked for a storage backend it does not know."""


class AnalysisError(ReproError):
    """Raised by the analysis layer (e.g. similarity search on empty data)."""


class ELFError(ReproError):
    """Raised when parsing or building an ELF image fails."""
