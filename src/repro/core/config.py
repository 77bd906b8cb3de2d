"""Configuration of a SIREN deployment.

:class:`SirenConfig` is the one place a deployment knob is declared and
validated: what a real deployment configures, and nothing of the network it
sends through.  :class:`~repro.workload.campaign.CampaignConfig` subclasses
it with what a job driver and its simulated network need on top;
:class:`~repro.core.framework.SirenFramework` turns either into the wired
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.messages import MAX_DATAGRAM_SIZE, MIN_DATAGRAM_SIZE
from repro.util.errors import CollectionError


@dataclass(frozen=True)
class SirenConfig:
    """Deployment-level configuration.

    Parameters
    ----------
    max_datagram_size:
        Datagram budget used when chunking long contents (at least
        :data:`~repro.transport.messages.MIN_DATAGRAM_SIZE`).
    store_path:
        SQLite path; ``":memory:"`` keeps everything in RAM.
    ingest_mode:
        ``"streaming"``, the only value: messages are consolidated as they
        arrive through :mod:`repro.ingest`, so
        :meth:`~repro.core.framework.SirenFramework.snapshot` serves live
        analysis views mid-deployment.  The batch post-pass is gone
        (``docs/architecture.md``, "One ingest path").
    keep_raw_messages:
        Whether raw messages are *also* persisted in the ``messages`` table,
        alongside live consolidation (the paper's store keeps them).
    rollups:
        Keep gold rollups (:mod:`repro.db.tiered`) in step with the
        ``processes`` table, answering the Table 2/3/4/8 queries in
        O(answer), byte-identical to the recompute from records.  Each
        flushed record then also pays one fold; ``False`` (default) skips it.
    """

    max_datagram_size: int = MAX_DATAGRAM_SIZE
    store_path: str = ":memory:"
    ingest_mode: str = "streaming"
    keep_raw_messages: bool = True
    rollups: bool = False

    def validate(self) -> None:
        """Raise :class:`CollectionError` for a value no deployment can honour."""
        if self.ingest_mode != "streaming":
            raise CollectionError(
                f"unknown ingest_mode {self.ingest_mode!r}: ingest is streaming "
                'only (docs/architecture.md, "One ingest path")')
        if self.max_datagram_size < MIN_DATAGRAM_SIZE:
            raise CollectionError(
                f"max_datagram_size must be at least {MIN_DATAGRAM_SIZE}, "
                f"got {self.max_datagram_size!r}")
