"""``ShardedIngest``: the ingest object under the name the pipeline benchmark
builds it by.

Kept only for the benchmark, which constructs its receiving side as
``ShardedIngest(store, shards=1, persist_raw=False)``; a ``[benchmark]`` PR
moves it to :class:`~repro.ingest.incremental.IncrementalConsolidator` and
removes this module.  There is no shard any more: several shards in one
interpreter share one GIL, and shards in worker processes lost to one on
every measurement (``docs/architecture.md``, "Parallelism: measured and
removed"), so any ``shards`` but 1 is still refused.
"""

from __future__ import annotations

from repro.db.store import MessageStore
from repro.ingest.incremental import IncrementalConsolidator
from repro.util.errors import TransportError


def ShardedIngest(store: MessageStore, shards: int = 1,  # noqa: N802 (benchmark-facing name)
                  persist_raw: bool = False) -> IncrementalConsolidator:
    """The one ingest object over ``store``; ``shards`` accepts exactly 1."""
    if shards != 1:
        raise TransportError(
            f"ingest runs as exactly one in-process shard, got shards="
            f"{shards!r} (docs/architecture.md, \"Parallelism: "
            "measured and removed\")")
    return IncrementalConsolidator(store, persist_raw=persist_raw)
