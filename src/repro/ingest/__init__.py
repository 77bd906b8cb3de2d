"""Streaming ingest: consolidate SIREN messages as they arrive.

The one ingest path of a deployment -- nothing waits for a post-pass over
a raw message table:

* :mod:`repro.ingest.records` -- the record builder: one
  :class:`~repro.db.store.ProcessRecord` from the message groups of one
  process key, with the Python packages parsed from its memory map;
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
  exactly-once record delta stream behind :mod:`repro.analysis.live`,
  handing over the records it just wrote without reading them back.

The front is pinned record-for-record equal to a post-pass over the same
datagrams (``tests/oracles/consolidate.py``, exercised by ``tests/ingest/``).
"""

from repro.ingest.incremental import IncrementalConsolidator
from repro.ingest.sharded import ProcessDelta, ShardedIngest

__all__ = [
    "IncrementalConsolidator",
    "ProcessDelta",
    "ShardedIngest",
]
