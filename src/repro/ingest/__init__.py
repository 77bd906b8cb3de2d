"""Streaming ingest: consolidate SIREN datagrams as they arrive.

The one ingest path of a deployment -- nothing waits for a post-pass over
a raw message table:

* :mod:`repro.ingest.records` -- the record builder: one
  :class:`~repro.db.store.ProcessRecord` from the message groups of one
  process key, with the Python packages parsed from its memory map;
* :mod:`repro.ingest.incremental` --
  :class:`~repro.ingest.incremental.IncrementalConsolidator`, the one
  ingest object: it decodes, counts and quarantines datagrams, batches
  them (raw-persisting each batch when asked), keeps open per-process
  message groups, finalizes each record the moment its ``PROCEND``
  confirms the expected content types are complete (with an epoch/idle
  close for lossy stragglers), and flushes finished records in batches
  through the store's first-close-wins insert; its
  :meth:`~repro.ingest.incremental.IncrementalConsolidator.snapshot_delta`
  serves the exactly-once record delta stream behind
  :mod:`repro.analysis.live`, handing over the records it just wrote
  without reading them back;
* :mod:`repro.ingest.sharded` -- ``ShardedIngest``, the same object under
  the name the pipeline benchmark builds it by.

The ingest object is pinned record-for-record equal to a post-pass over the
same datagrams (``tests/oracles/consolidate.py``, exercised by
``tests/ingest/``).
"""

from repro.ingest.incremental import (
    DatagramQuarantine,
    IncrementalConsolidator,
    ProcessDelta,
    QuarantinedDatagram,
)

__all__ = [
    "DatagramQuarantine",
    "IncrementalConsolidator",
    "ProcessDelta",
    "QuarantinedDatagram",
]
