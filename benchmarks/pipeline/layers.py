"""Where the spans go, and what each layer reports.

Layers are ``src/repro`` module names.  The wiring functions assign timing
closures over the bound public methods of live instances -- nothing under
``src/`` is edited, and nothing here reads ``CampaignResult.stage_timings``.
Code the benchmark does not wrap (the campaign's own job loop, job-script
building) falls into the enclosing root span, ``workload.driver``.

Sub-layers are dotted (``db.tiered``, ``ingest.finalize``); a layer's self
time is the sum over its sub-layers (:meth:`Tracer.layer_self`).
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any

from repro.analysis.similarity import SimilaritySearch
from repro.elf.reader import ELFFile
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing
from repro.hashing.ssdeep import FuzzyHasher
from repro.transport.messages import UDPMessage

from .trace import Tracer, percentile

#: The TieredStore gold queries a dashboard refresh and the report make.
GOLD_QUERIES: tuple[str, ...] = ("user_activity", "system_executables",
                                 "shared_object_variants", "python_interpreters")


# ---------------------------------------------------------------------- #
# wiring
# ---------------------------------------------------------------------- #
def wire_collection_side(tracer: Tracer, cluster: Any, collector: Any,
                         counters: dict[str, int]) -> None:
    """hpcsim -> collector -> hashing -> transport, as the hook nests them."""
    if not tracer.enabled:
        return
    tracer.wrap(cluster, "run_job", "hpcsim")
    tracer.wrap(collector, "on_process_end", "collector")
    artifact_hasher = collector.hasher
    for method in ("executable_hashes", "list_hash", "script_hash"):
        tracer.wrap(artifact_hasher, method, "hashing")
    tracer.wrap(collector.sender, "send", "transport")

    # Every digest the collector computes goes through FuzzyHasher.hash.
    fuzzy = artifact_hasher.hasher
    inner_hash = fuzzy.hash

    def counting_hash(data: bytes) -> Any:
        counters["bytes_hashed"] += len(data)
        return inner_hash(data)

    fuzzy.hash = counting_hash

    # What a real user process pays: the constructor's time minus the
    # receiving side, which a deployment runs on another host.  Only
    # collected processes are sampled; ranks the policy skips return at once.
    start_span = tracer.timed(collector.on_process_start, "collector")
    inclusive, samples = tracer.inclusive_s, tracer.samples["collector.node_us"]

    def on_process_start(context: Any) -> None:
        collected, server_side = collector.processes_collected, inclusive["ingest"]
        start = perf_counter()
        start_span(context)
        duration = perf_counter() - start
        if collector.processes_collected > collected:
            samples.append((duration - (inclusive["ingest"] - server_side)) * 1e6)

    collector.on_process_start = on_process_start


def wire_receiving_side(tracer: Tracer, store: Any, tiered: Any, ingest: Any,
                        channel: Any = None) -> None:
    """ingest -> db.  ``channel`` is the campaign's in-memory channel, whose
    ``send`` *is* the receiving side (it calls ``handle_datagram`` inline)."""
    if not tracer.enabled:
        return
    if channel is not None:
        tracer.wrap(channel, "send", "ingest")
    tracer.wrap(ingest, "handle_datagram", "ingest")
    tracer.wrap(ingest, "finalize", "ingest.finalize")
    tracer.wrap(ingest, "snapshot_delta", "ingest.snapshot")
    for method in dir(store):
        if method.startswith("insert_") and "processes" in method:
            tracer.wrap(store, method, "db.store")
    tracer.wrap(store, "sync_tiered", "db.tiered")
    if tiered is not None:
        for method in GOLD_QUERIES:
            tracer.wrap(tiered, method, "db.gold")


# ---------------------------------------------------------------------- #
# direct calls on a workload's inputs (leaf layers)
# ---------------------------------------------------------------------- #
def hash_mb_per_s(images: list[bytes]) -> float:
    """``FuzzyHasher.hash`` throughput over the churn images."""
    hasher = FuzzyHasher()
    start = perf_counter()
    for image in images:
        hasher.hash(image)
    return sum(map(len, images)) / (perf_counter() - start) / 1e6


def compare_us_per_pair(digests: list[str]) -> float:
    """``compare_many`` of every digest against all the others (cold LRU)."""
    hasher = FuzzyHasher()
    start = perf_counter()
    for digest in digests:
        hasher.compare_many(digest, digests)
    return (perf_counter() - start) / (len(digests) ** 2) * 1e6


def elf_parse_mb_per_s(images: list[bytes]) -> float:
    """Parse plus the three extractions the collector runs per executable."""
    start = perf_counter()
    for image in images:
        elf = ELFFile(image)
        elf.comment_strings()
        strings_blob(image)
        nm_listing(elf)
    return sum(map(len, images)) / (perf_counter() - start) / 1e6


def decode_us_per_msg(stream: list[bytes]) -> float:
    """``UDPMessage.decode`` over the captured stream."""
    decode = UDPMessage.decode
    start = perf_counter()
    for datagram in stream:
        decode(datagram)
    return (perf_counter() - start) / len(stream) * 1e6


def matrix_seconds(search: SimilaritySearch) -> float:
    """``pairwise_average_matrix`` over the search's instances."""
    start = perf_counter()
    search.pairwise_average_matrix()
    return perf_counter() - start


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def _metric(value: float | int | None, unit: str, reason: str = "") -> dict[str, Any]:
    metric: dict[str, Any] = {"value": value, "unit": unit}
    if value is None:
        metric["reason"] = reason or "layer does no work on this workload"
    return metric


def _p(samples: list[float], p: float, factor: float = 1.0) -> float | None:
    return percentile(samples, p) * factor if samples else None


def _ratio(part: float, whole: float) -> float | None:
    return part / whole if whole else None


def layer_metrics(tracer: Tracer, live: dict[str, Any], wall_s: float) -> dict[str, Any]:
    """Every per-layer metric of BENCHMARK.json, from one traced repetition.

    ``live`` holds the instances and direct-call results the workload left
    behind; a layer that did no work reports ``None`` with a reason.
    """
    self_s, inclusive, samples = tracer.layer_self, tracer.inclusive_s, tracer.samples
    cluster, collector = live.get("cluster"), live.get("collector")
    ingest, store, tiered = live["ingest"], live["store"], live.get("tiered")
    search = live["search"]
    counters = live["counters"]
    metrics: dict[str, Any] = {}

    metrics["hpcsim.self_s"] = _metric(self_s("hpcsim"), "s")
    metrics["hpcsim.procs"] = _metric(cluster.processes_run if cluster else 0, "count")

    metrics["collector.self_s"] = _metric(self_s("collector"), "s")
    node = samples["collector.node_us"]
    metrics["collector.node_us_p50"] = _metric(_p(node, 50), "us")
    metrics["collector.node_us_p99"] = _metric(_p(node, 99), "us")
    if collector is not None:
        hooked = collector.processes_collected + collector.processes_skipped
        metrics["collector.section_errors"] = _metric(collector.section_errors, "count")
        metrics["collector.skipped_frac"] = _metric(
            _ratio(collector.processes_skipped, hooked), "ratio")
        hasher = collector.hasher
        hits = hasher.cache_hits + hasher.content_cache_hits
        metrics["hashing.cache_hit_ratio"] = _metric(
            _ratio(hits, hits + hasher.hashes_computed), "ratio")
        sender = collector.sender
        metrics["transport.datagrams"] = _metric(sender.datagrams_sent, "count")
        metrics["transport.send_errors"] = _metric(sender.send_errors, "count")
    else:
        for name, unit in (("collector.section_errors", "count"),
                           ("collector.skipped_frac", "ratio"),
                           ("hashing.cache_hit_ratio", "ratio"),
                           ("transport.send_errors", "count")):
            metrics[name] = _metric(None, unit)
        metrics["transport.datagrams"] = _metric(live["datagrams"], "count")
    metrics["hashing.self_s"] = _metric(self_s("hashing"), "s")
    metrics["hashing.bytes_hashed"] = _metric(counters["bytes_hashed"], "B")
    metrics["transport.encode_self_s"] = _metric(self_s("transport"), "s")
    metrics["transport.bytes"] = _metric(live["datagram_bytes"], "B")

    for name, unit in (("hashing.hash_mb_per_s", "MB/s"),
                       ("hashing.compare_us_per_pair", "us"),
                       ("elf.parse_mb_per_s", "MB/s"),
                       ("transport.decode_us_per_msg", "us"),
                       ("ingest.process_msgs_per_s", "1/s"),
                       ("analysis.matrix_s", "s")):
        value, reason = live["direct"].get(name, (None, "needs inputs this workload lacks"))
        metrics[name] = _metric(value, unit, reason)

    metrics["ingest.self_s"] = _metric(self_s("ingest"), "s")
    metrics["ingest.finalize_s"] = _metric(inclusive["ingest.finalize"], "s")
    metrics["ingest.peak_open_groups"] = _metric(ingest.peak_open_processes, "count")
    metrics["ingest.decode_errors"] = _metric(ingest.decode_errors, "count")
    metrics["ingest.quarantined"] = _metric(ingest.quarantined, "count")
    metrics["ingest.snapshot_delta_ms_p50"] = _metric(
        _p(samples["refresh.ingest.snapshot"], 50, 1e3), "ms")

    metrics["db.store_write_self_s"] = _metric(self_s("db.store"), "s")
    tiered_self = self_s("db.tiered")
    metrics["db.tiered_self_s"] = _metric(tiered_self, "s")
    stats = tiered.statistics() if tiered is not None else {}
    metrics["db.tiered_records_per_s"] = _metric(
        _ratio(stats.get("rollup_records_applied", 0), tiered_self), "1/s")
    metrics["db.gold_query_ms_p50"] = _metric(_p(samples["refresh.db.gold"], 50, 1e3), "ms")
    dedup = stats.get("blob_dedup_hits", 0)
    metrics["db.blob_dedup_ratio"] = _metric(
        _ratio(dedup, dedup + stats.get("blob_entries", 0)), "ratio")
    metrics["db.write_retries"] = _metric(store.write_retries, "count")
    metrics["db.silver_rows"] = _metric(stats.get("silver_rows"), "count")

    metrics["analysis.report_s"] = _metric(inclusive["analysis.report"], "s")
    metrics["analysis.recompute_tables_ms"] = _metric(live["recompute_s"] * 1e3, "ms")
    metrics["analysis.live_sync_ms_p50"] = _metric(
        _p(samples["refresh.analysis.live_sync"], 50, 1e3), "ms")
    metrics["analysis.live_views_ms_p50"] = _metric(
        _p(samples["refresh.analysis.live_views"], 50, 1e3), "ms")
    metrics["analysis.search_build_s"] = _metric(
        statistics.fmean(samples["analysis.search_build"]), "s")
    metrics["analysis.comparisons"] = _metric(live["comparisons"], "count")
    index = search.index_stats()
    metrics["analysis.index_pruned_ratio"] = _metric(
        _ratio(index.pairs_pruned, index.pairs_pruned + index.candidates_returned)
        if index is not None else None, "ratio", "below the index threshold")

    metrics["workload.driver_self_s"] = _metric(self_s("workload.driver"), "s")
    metrics["workload.prepare_s"] = _metric(inclusive["workload.prepare"], "s")
    metrics["trace.self_sum_frac"] = _metric(tracer.total_self() / wall_s, "ratio")
    return metrics
