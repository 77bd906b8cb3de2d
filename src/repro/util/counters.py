"""The central registry of operational counter/statistics keys.

Counters are surfaced from half a dozen places --
:meth:`~repro.ingest.incremental.IncrementalConsolidator.statistics`,
:meth:`~repro.ingest.sharded.ShardedIngest.statistics`,
:meth:`~repro.ingest.procworkers.ProcessShardPool.statistics`,
:meth:`~repro.workload.campaign.CampaignResult.statistics`,
:meth:`~repro.core.framework.SirenFramework.statistics`,
:meth:`~repro.analysis.live.LiveAnalysis.statistics` and
:meth:`~repro.faults.channel.FaultyChannel.fault_counters` -- and the
parallel drivers *fold* them key-wise across workers and incarnations.  A
key that exists in one emitter but not another silently drops out of the
fold, and a renamed key quietly breaks every cross-mode "counter-for-counter
identical" pin.  Declaring every key here, once, turns that drift into a
lint failure: the ``counters`` rule family of :mod:`repro.devtools.lint`
cross-checks each emitter's literal keys against this registry in both
directions.

Keys produced dynamically with a namespace prefix (``ingest_<key>``,
``fault_<key>``) are covered by :data:`COUNTER_PREFIXES`: the base key under
the prefix is itself registered, so only the prefix needs declaring.
"""

from __future__ import annotations

#: Every statistics/counter key any emitter may surface, with its meaning.
COUNTERS: dict[str, str] = {
    # --- consolidation (IncrementalConsolidator.statistics) ------------ #
    "messages_consumed": "decoded messages fed into a consolidator",
    "records_built": "process records finalized",
    "incomplete_records": "records flagged incomplete (datagram loss)",
    "early_finalized": "groups closed by PROCEND with all sections present",
    "idle_closed": "groups closed by the epoch/idle straggler rule",
    "final_closed": "groups force-closed at end of stream",
    "late_messages": "messages that arrived after their group closed",
    "open_processes": "process groups currently open",
    "peak_open_processes": "high-water mark of simultaneously open groups",
    # --- ingest front (ShardedIngest.statistics) ------------------------ #
    "shards": "receiver+consolidator workers in the ingest front",
    "messages_received": "messages accepted across all shards",
    "decode_errors": "undecodable datagrams dropped by the ingest path",
    "quarantined": "undecodable datagrams captured in the forensic ring",
    # --- self-healing supervision (ProcessShardPool.statistics) --------- #
    "worker_restarts": "supervised shard-worker restarts",
    "restart_lost_groups": "open groups whose messages died with a worker",
    "restart_lost_datagrams": "resend-window overflow datagrams lost to a crash",
    "resend_replayed_batches": "batches replayed into restarted workers",
    "resend_overflow_batches": "batches evicted from the bounded resend window",
    # --- campaign results (CampaignResult.statistics) ------------------- #
    "campaign_workers": "OS driver processes that ran the job loop",
    "jobs_run": "jobs submitted through the scheduler",
    "processes_run": "processes launched by those jobs",
    "records": "consolidated records in the campaign result",
    "incomplete_fraction": "fraction of records flagged incomplete",
    "processes_collected": "processes the SIREN hook collected",
    "processes_skipped": "processes the collection policy skipped",
    "section_errors": "collection sections that failed and were skipped",
    "hashes_computed": "CTPH digests computed by the collector",
    "hash_cache_hits": "path-cache hits in the artifact hasher",
    "hash_content_cache_hits": "content-addressed digest cache hits",
    "hash_cache_hit_rate": "hits / lookups across both hash caches",
    "compare_cache_hits": "signature-compare LRU hits",
    "compare_cache_misses": "signature-compare LRU misses",
    "messages_sent": "logical messages the sender emitted",
    "datagrams_sent": "datagrams the sender handed to the channel",
    "send_errors": "channel errors swallowed by the fire-and-forget sender",
    "datagrams_dropped": "datagrams dropped by the lossy channel",
    # --- framework deployments (SirenFramework.statistics) -------------- #
    "store_write_retries": "store write transactions retried on lock/busy",
    "observed_loss_rate": "dropped / sent on the lossy channel",
    # --- live analysis (LiveAnalysis.statistics) ------------------------ #
    "records_committed": "records folded into the live accumulators",
    "open_records": "transient open-group records in the current overlay",
    "instances": "similarity instances grown so far",
    "syncs": "delta pulls performed",
    "cursor": "current delta-stream high-water mark",
    "comparisons": "digest alignments performed",
    # --- tiered record store (TieredStore.statistics) -------------------- #
    "silver_records": "live (latest-version) records in the silver tier",
    "silver_rows": "physical silver row versions across all shards",
    "silver_shards": "hash partitions the silver tier is split into",
    "blob_entries": "distinct content-addressed blobs stored",
    "blob_dedup_hits": "payload writes satisfied by an existing blob",
    "rollup_campaigns": "campaign labels present in the silver tier",
    "rollup_syncs": "record-delta batches folded into the tiers",
    "rollup_records_applied": "record versions folded incrementally into gold",
    "rollup_dedup_skips": "re-delivered unchanged records skipped by dedup",
    "rollup_rebuilds": "full gold rebuilds from the silver tier",
    "rollup_query_hits": "gold queries answered from clean rollups",
    "rollup_query_misses": "gold queries that first rebuilt dirty rollups",
    "compactions": "compaction passes over the silver shards",
    "compaction_dropped": "superseded row versions dropped by compaction",
    "blobs_collected": "unreferenced blobs garbage-collected",
    "retention_dropped": "record versions dropped by campaign retention",
    # --- injected channel faults (FaultyChannel.fault_counters) --------- #
    "dropped": "datagrams the fault pipeline dropped",
    "duplicated": "datagrams the fault pipeline duplicated",
    "corrupted": "datagrams the fault pipeline bit-flipped",
    "truncated": "datagrams the fault pipeline truncated",
    "reordered": "datagrams delivered out of order",
    "jitter_bursts": "holdback bursts the fault pipeline injected",
}

#: Dynamic key namespaces: ``<prefix><base-key>`` where the base key is
#: itself registered above (the campaign/framework results nest the ingest
#: and fault counter sets under these prefixes).
COUNTER_PREFIXES: dict[str, str] = {
    "ingest_": "ShardedIngest.statistics() folded into a result view",
    "fault_": "FaultyChannel.fault_counters() folded into framework statistics",
}


def is_registered_counter(key: str) -> bool:
    """Whether ``key`` is a declared counter (directly or via a prefix)."""
    if key in COUNTERS:
        return True
    return any(key.startswith(prefix) and key[len(prefix):] in COUNTERS
               for prefix in COUNTER_PREFIXES)


def assert_registered_counters(stats: dict[str, object], *, context: str) -> None:
    """Raise ``AssertionError`` naming every unregistered key in ``stats``.

    A runtime companion to the static ``counters`` lint rules, for tests
    that exercise real emitters end to end.
    """
    unknown = sorted(key for key in stats if not is_registered_counter(key))
    if unknown:
        raise AssertionError(
            f"{context} surfaced unregistered counter keys {unknown}; declare "
            "them in repro.util.counters.COUNTERS")
