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
* :mod:`repro.ingest.shard` -- :class:`~repro.ingest.shard.IngestShard`,
  the one shard there is (a receiver feeding that consolidator), and
  :func:`~repro.ingest.shard.shard_of_datagram`, the stable FNV hash of the
  raw header slice that assigns a process key to a shard;
* :mod:`repro.ingest.sharded` --
  :class:`~repro.ingest.sharded.ShardedIngest`, the front: one shard in this
  interpreter when ``shards == 1``, ``shards`` worker processes otherwise;
  its :meth:`~repro.ingest.sharded.ShardedIngest.snapshot_delta` serves the
  exactly-once record delta stream behind :mod:`repro.analysis.live`;
* :mod:`repro.ingest.procworkers` --
  :class:`~repro.ingest.procworkers.ProcessShardPool`, the supervised worker
  processes, merging finalized records back into the shared store at every
  sync.

Both placements are pinned record-for-record equivalent to the batch
consolidator (``tests/ingest/``); ``ingest_mode="streaming"`` +
``ingest_shards`` on :class:`~repro.core.config.SirenConfig` select them.
"""

from repro.ingest.incremental import IncrementalConsolidator
from repro.ingest.procworkers import ProcessShardPool, ShardReport
from repro.ingest.shard import IngestShard, shard_of_datagram
from repro.ingest.sharded import ProcessDelta, ShardedIngest

__all__ = [
    "IncrementalConsolidator",
    "IngestShard",
    "ProcessDelta",
    "ProcessShardPool",
    "ShardReport",
    "ShardedIngest",
    "shard_of_datagram",
]
