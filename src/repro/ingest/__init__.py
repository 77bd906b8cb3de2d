"""Streaming ingest: consolidate SIREN messages as they arrive.

The batch pipeline (receiver persists raw messages, a post-pass
:class:`~repro.postprocess.consolidate.Consolidator` re-reads and re-groups
everything) cannot serve a continuously running collector.  This subpackage
turns ingest into a live system:

* :mod:`repro.ingest.incremental` --
  :class:`~repro.ingest.incremental.IncrementalConsolidator` keeps open
  per-process message groups, finalizes each record the moment its
  ``PROCEND`` confirms the expected content types are complete (with an
  epoch/idle close for lossy stragglers), and flushes finished records in
  batches through the store's first-close-wins insert;
* :mod:`repro.ingest.sharded` --
  :class:`~repro.ingest.sharded.ShardedIngest`, the front: a receiver
  feeding that consolidator in this interpreter; its
  :meth:`~repro.ingest.sharded.ShardedIngest.snapshot_delta` serves the
  exactly-once record delta stream behind :mod:`repro.analysis.live`.

The front is pinned record-for-record equivalent to the batch consolidator
(``tests/ingest/``); ``ingest_mode="streaming"`` on
:class:`~repro.core.config.SirenConfig` selects it.
"""

from repro.ingest.incremental import IncrementalConsolidator
from repro.ingest.sharded import ProcessDelta, ShardedIngest

__all__ = [
    "IncrementalConsolidator",
    "ProcessDelta",
    "ShardedIngest",
]
