"""The central registry of operational counter/statistics keys.

Counters are surfaced from several places --
:meth:`~repro.ingest.incremental.IncrementalConsolidator.statistics`,
:meth:`~repro.workload.campaign.CampaignResult.statistics`,
:meth:`~repro.core.framework.SirenFramework.statistics`,
:meth:`~repro.analysis.live.LiveAnalysis.statistics` and
:meth:`~repro.hpcsim.faults.FaultyChannel.fault_counters` -- and the result
views *nest* one emitter's keys inside another's (``ingest_<key>``,
``fault_<key>``).  A renamed key silently drops out of every view that
copies it and quietly breaks every test or report that reads it.
Declaring every key here, once, turns that drift into a test failure:
``tests/test_repo_invariants.py`` cross-checks each emitter's literal keys
against this registry in both directions.

Keys produced dynamically with a namespace prefix (``ingest_<key>``,
``fault_<key>``) are covered by :data:`COUNTER_PREFIXES`: the base key under
the prefix is itself registered, so only the prefix needs declaring.
"""

from __future__ import annotations

#: Every statistics/counter key any emitter may surface, with its meaning.
COUNTERS: dict[str, str] = {
    # --- ingest (IncrementalConsolidator.statistics) ------------------- #
    "messages_consumed": "decoded messages filed under the open processes",
    "records_built": "process records finalized",
    "incomplete_records": "records flagged incomplete (datagram loss)",
    "early_finalized": "groups closed by PROCEND with all sections present",
    "idle_closed": "groups closed by the epoch/idle straggler rule",
    "final_closed": "groups force-closed at end of stream",
    "late_messages": "messages that arrived after their group closed",
    "open_processes": "process groups currently open",
    "peak_open_processes": "high-water mark of simultaneously open processes",
    "messages_received": "datagrams that decoded into messages",
    "decode_errors": "undecodable datagrams dropped by the ingest path",
    "quarantined": "the forensic ring's length, capped at QUARANTINE_CAPACITY "
                   "(DatagramQuarantine.quarantined counts every capture)",
    # --- campaign results (CampaignResult.statistics) ------------------- #
    "jobs_run": "jobs submitted through the scheduler",
    "processes_run": "processes launched by those jobs",
    "records": "consolidated records in the campaign result",
    "incomplete_fraction": "fraction of records flagged incomplete",
    "processes_collected": "processes the SIREN hook collected",
    "processes_skipped": "processes the rank rule skipped",
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
    "datagrams_dropped": "datagrams the campaign network's loss stage dropped",
    "observed_loss_rate": "dropped / sent at the campaign network's loss stage",
    # --- framework deployments (SirenFramework.statistics) -------------- #
    "store_write_retries": "store write transactions retried on lock/busy",
    # --- live analysis (LiveAnalysis.statistics) ------------------------ #
    "records_committed": "records folded into the live accumulators",
    "open_records": "transient open-group records in the current overlay",
    "instances": "similarity instances grown so far",
    "syncs": "delta pulls performed",
    "cursor": "current delta-stream high-water mark",
    "comparisons": "digest comparisons made, compare-LRU hits included",
    "identify_reused": "Table 7 answers served from memory, without a comparison",
    # --- gold rollups (TieredStore.statistics) --------------------------- #
    "silver_rows": "processes rows the gold rollups reflect",
    "rollup_syncs": "flushed batches folded into gold as they were written",
    "rollup_records_applied": "records folded into gold from flushed batches",
    "rollup_rebuilds": "gold refolds from a non-empty processes table",
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
    "ingest_": "IncrementalConsolidator.statistics() folded into a result view",
    "fault_": "FaultyChannel.fault_counters() folded into campaign statistics",
}


def is_registered_counter(key: str) -> bool:
    """Whether ``key`` is a declared counter (directly or via a prefix)."""
    if key in COUNTERS:
        return True
    return any(key.startswith(prefix) and key[len(prefix):] in COUNTERS
               for prefix in COUNTER_PREFIXES)


def assert_registered_counters(stats: dict[str, object], *, context: str) -> None:
    """Raise ``AssertionError`` naming every unregistered key in ``stats``.

    A runtime companion to the static counters check, for tests that
    exercise real emitters end to end.
    """
    unknown = sorted(key for key in stats if not is_registered_counter(key))
    if unknown:
        raise AssertionError(
            f"{context} surfaced unregistered counter keys {unknown}; declare "
            "them in repro.util.counters.COUNTERS")
