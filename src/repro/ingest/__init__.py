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
  :class:`~repro.ingest.sharded.ShardedIngest` partitions the datagram
  stream across N receiver+consolidator shards by a stable FNV hash of the
  process key and merges their counters; its
  :meth:`~repro.ingest.sharded.ShardedIngest.snapshot_delta` serves the
  exactly-once record delta stream (:class:`~repro.ingest.sharded.ProcessDelta`)
  behind the live analysis layer (:mod:`repro.analysis.live`);
* :mod:`repro.ingest.procworkers` --
  :class:`~repro.ingest.procworkers.ProcessShardPool` runs each shard as a
  real OS process with its own store and consolidator
  (``ShardedIngest(workers="process")``), routing raw datagram bytes by
  their header slice and merging finalized records back into the shared
  store at every snapshot/delta/finalize sync -- true multi-core ingest
  with unchanged snapshot semantics.

All paths are pinned record-for-record equivalent to the batch consolidator
(see ``tests/ingest/``); ``ingest_mode="streaming"`` +
``ingest_workers="thread"|"process"`` on
:class:`~repro.core.config.SirenConfig` select them end to end.
"""

from repro.ingest.incremental import IncrementalConsolidator
from repro.ingest.procworkers import ProcessShardPool, ShardReport
from repro.ingest.sharded import (
    ProcessDelta,
    ShardedIngest,
    shard_of,
    shard_of_datagram,
)

__all__ = [
    "IncrementalConsolidator",
    "ProcessDelta",
    "ProcessShardPool",
    "ShardReport",
    "ShardedIngest",
    "shard_of",
    "shard_of_datagram",
]
