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

    Covers both configuration mistakes (bad loss rates, a shard count
    other than one) and undecodable datagrams.  Runtime ingest failures
    raise the more specific :class:`IngestError` subclass below, so
    ``except TransportError`` keeps catching everything while callers that
    care can tell a garbled datagram from a failing pipeline.
    """


class IngestError(TransportError):
    """A runtime failure of the streaming-ingest machinery.

    Subclasses :class:`TransportError` so existing ``except TransportError``
    clauses keep working; raised when the ingest pipeline itself (not a
    single datagram) fails at runtime -- e.g. a store retry budget
    exhausting.
    """


class StoreError(ReproError):
    """Raised by the tiered record store (:mod:`repro.db.tiered`).

    Covers backend misconfiguration (unknown ``store_backend`` name, a
    shard-count mismatch on reopen), content-digest collisions in the
    blob dedup tier, and querying an ambiguous multi-campaign store
    without naming a campaign.
    """


class AnalysisError(ReproError):
    """Raised by the analysis layer (e.g. similarity search on empty data)."""


class ELFError(ReproError):
    """Raised when parsing or building an ELF image fails."""
