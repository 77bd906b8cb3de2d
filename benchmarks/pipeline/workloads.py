"""The four workloads: timed regions, follow-ups and correctness checks.

Every repetition has the same skeleton, so that every end-to-end metric is a
real measurement on every workload (the table in README.md says what each
one means where):

* **main** -- the workload proper.  It processes its input one *unit* at a
  time (a job through ``run_job``, or a slice of the datagram stream through
  ``handle_datagram``), finalizes ingest and, except for the churn loop,
  renders the report.  ``campaign_wall_s`` is its wall-clock,
  ``ingest_msgs_per_s`` its datagrams over the first-datagram-to-finalize
  window, ``cold_start_ms_*`` the per-unit times.
* **identify** -- build a ``SimilaritySearch`` over the records and identify
  every UNKNOWN instance (``identify_s``).
* **refresh** -- dashboard refreshes: after every slice on ``live-query``,
  against the finished store elsewhere (``refresh_ms_*``).

A repetition reports its durations as ``spans``: named lists of milliseconds
(``prepare``, ``unit``, ``refresh``, ``tail``, ``report``, ``identify``) as
the clock read, beside the host-speed ``probes`` taken around each, plus
which spans tile the wall-clock (``wall_spans``) and the ingest window
(``ingest_spans``); ``harness.timing_metrics`` turns them into the
repetition's end-to-end metrics.

Load is generated closed-loop by the one thread that runs this module.
"""

from __future__ import annotations

import gc
import itertools
import os
from functools import partial
from time import perf_counter
from typing import Any

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilaritySearch
from repro.collector.hooks import SirenCollector
from repro.core.pipeline import AnalysisPipeline
from repro.corpus.builder import CorpusBuilder
from repro.db.store import MessageStore
from repro.db.tiered import build_tiered_store
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.ingest.sharded import ShardedIngest
from repro.transport.channel import InMemoryChannel
from repro.transport.sender import UDPSender
from repro.util.errors import AnalysisError
from repro.util.rng import SeededRNG

from . import layers
from .inputs import CHURN_USER, Sizes, accepted_knobs, new_campaign, record_set_digest
from .trace import PROBE_EVERY_DATAGRAMS, Laps, NullTracer, Tracer

#: Root span of every timed region: what no wrapped layer claims is the
#: benchmark's own loop plus, on ``campaign``, the campaign driver's.
ROOT_LAYER = "workload.driver"
#: Refresh sub-spans whose per-refresh time the layer metrics quote.
_REFRESH_LAYERS: tuple[str, ...] = ("ingest.snapshot", "analysis.live_sync",
                                    "analysis.live_views", "db.gold")


# ---------------------------------------------------------------------- #
# shared pieces
# ---------------------------------------------------------------------- #
def receiving_side(tracer: Tracer, user_names: dict[int, str], dropped: list[str],
                   **ingest_knobs: Any) -> tuple[Any, Any, Any]:
    """A fresh MessageStore + attached TieredStore + ShardedIngest."""
    store = MessageStore()
    tiered = build_tiered_store("sqlite", user_names=user_names)
    store.attach_tiered(tiered)
    knobs = {"shards": 1, "persist_raw": False, **ingest_knobs}
    ingest = ShardedIngest(store, **accepted_knobs(ShardedIngest, dropped, **knobs))
    layers.wire_receiving_side(tracer, store, tiered, ingest)
    return store, tiered, ingest


def gold_tables(tiered: Any) -> list[Any]:
    """The four gold tables (Tables 2, 3, 4 and 8)."""
    return [tiered.user_activity(), tiered.system_executables(),
            tiered.shared_object_variants("bash"), tiered.python_interpreters()]


def recomputed_tables(pipeline: AnalysisPipeline) -> list[Any]:
    """The same four tables recomputed from records: the gold reference."""
    return [pipeline.table2_user_activity(), pipeline.table3_system_executables(),
            pipeline.table4_shared_object_variants("bash"),
            pipeline.table8_python_interpreters()]


def render_report(tracer: Tracer, records: list[Any], user_names: dict[int, str],
                  tiered: Any) -> AnalysisPipeline:
    """The full report: every table and figure, plus the gold tables."""
    pipeline = AnalysisPipeline(records, user_names)
    with tracer.span("analysis.report"):
        pipeline.render_all()
    if tiered is not None:
        gold_tables(tiered)
    return pipeline


def dashboard_refresh(tracer: Tracer, live: LiveAnalysis, tiered: Any) -> None:
    """One refresh: pull the delta, live Tables 2/3/8, gold tables, Table 7."""
    before = {layer: tracer.inclusive_s[layer] for layer in _REFRESH_LAYERS}
    with tracer.span("analysis.live_sync"):
        live.sync()
    with tracer.span("analysis.live_views"):
        live.table2_user_activity()
        live.table3_system_executables()
        live.table8_python_interpreters()
        if live.unknown_instances():
            live.identify_unknown(top=10)
    if tiered is not None:
        gold_tables(tiered)
    if tracer.enabled:
        for layer, start in before.items():
            tracer.samples[f"refresh.{layer}"].append(tracer.inclusive_s[layer] - start)


def identify(tracer: Tracer, laps: Laps, records: list[Any],
             rounds: int) -> tuple[SimilaritySearch, dict]:
    """Build the search and identify every UNKNOWN, ``rounds`` times over.

    Every round starts from a fresh search (cold index, cold compare cache)
    and is one ``identify`` lap; returns the last search and its hits.
    """
    for _ in range(rounds):
        with tracer.span("analysis.search", sample="analysis.search_build"):
            search = SimilaritySearch(records)
        with tracer.span("analysis.search"):
            try:
                found = search.identify_unknown(top=10)
            except AnalysisError:      # no UNKNOWN instance at this size
                found = {}
        laps.lap("identify")
    return search, found


def steady_refreshes(tracer: Tracer, laps: Laps, count: int, user_names: dict[int, str],
                     ingest: Any, tiered: Any) -> None:
    """``count`` refreshes against a finished store; the first folds it all."""
    live = LiveAnalysis(user_names=user_names).bind(ingest)
    laps.restart()
    for _ in range(count):
        dashboard_refresh(tracer, live, tiered)
        laps.lap("refresh")


def gold_matches(tiered: Any, pipeline: AnalysisPipeline) -> tuple[bool, float]:
    """Gold tables == recompute from records; also times the recompute."""
    start = perf_counter()
    reference = recomputed_tables(pipeline)
    seconds = perf_counter() - start
    return (tiered is None or gold_tables(tiered) == reference), seconds


def datagram_prober(laps: Laps) -> Any:
    """A channel subscriber that probes the host inside long jobs.

    ``on_job`` is the only lap the campaign offers and one job can be a third
    of the run; the per-datagram cost of this is one call and one addition.
    """
    seen = itertools.count(1)

    def on_datagram(_datagram: bytes) -> None:
        if not next(seen) % PROBE_EVERY_DATAGRAMS:
            laps.probe_inside()

    return on_datagram


def feed(laps: Laps, datagrams: list[bytes], ingest: Any) -> None:
    """``handle_datagram`` every datagram, probing the host inside long runs."""
    handle = ingest.handle_datagram
    for low in range(0, len(datagrams), PROBE_EVERY_DATAGRAMS):
        if low:
            laps.probe_inside()
        for datagram in datagrams[low:low + PROBE_EVERY_DATAGRAMS]:
            handle(datagram)


def stream_cuts(boundaries: list[int]) -> list[int]:
    """Where the stream is cut: at every job boundary, and inside a job after
    every ``PROBE_EVERY_DATAGRAMS`` datagrams.

    Three of the smallest campaign's 26 jobs send 85 % of the datagrams and
    most of the others a few dozen: cut at job boundaries alone, the median
    slice takes 0.4 ms and measures the clock.  A dashboard polls while a long
    job streams in, so the extra cuts are refreshes a real one makes too.
    """
    cuts, low = [], 0
    for high in boundaries:
        cuts.extend(range(low + PROBE_EVERY_DATAGRAMS, high, PROBE_EVERY_DATAGRAMS))
        cuts.append(high)
        low = high
    return cuts


# ---------------------------------------------------------------------- #
# the workloads: prepare (untimed), then the main region under a root span
# ---------------------------------------------------------------------- #
def run_campaign(tracer: Tracer, inputs: dict[str, Any], out: dict[str, Any],
                 live: dict[str, Any]) -> None:
    """The paper's deployment, nested exactly as users run it."""
    laps: Laps = live["laps"]
    campaign = new_campaign(inputs["seed"], inputs["sizes"], out["dropped_knobs"],
                            rollups=True, on_job=lambda _count: laps.lap("unit"))
    tracer.wrap(campaign, "prepare", "workload.prepare")

    laps.restart()
    with tracer.span(ROOT_LAYER):
        campaign.prepare()
        layers.wire_collection_side(tracer, campaign.cluster, campaign.collector,
                                    live["counters"])
        layers.wire_receiving_side(tracer, campaign.store, campaign.tiered,
                                   campaign.ingest, channel=campaign.channel)
        campaign.channel.subscribe(datagram_prober(laps))
        laps.lap("prepare")
        result = campaign.run()
        laps.lap("tail")
        pipeline = render_report(tracer, result.records, result.user_names,
                                 result.tiered)
        laps.lap("report")

    out.update(wall_spans=["prepare", "unit", "tail", "report"],
               ingest_spans=["unit", "tail"],
               datagrams=result.collector.sender.datagrams_sent)
    live.update(result=result, cluster=result.cluster, collector=result.collector,
                store=result.store, tiered=result.tiered, ingest=result.ingest,
                records=result.records, user_names=result.user_names,
                pipeline=pipeline, datagram_bytes=result.channel.bytes_sent)


def check_campaign(inputs: dict[str, Any], out: dict[str, Any],
                   live: dict[str, Any]) -> None:
    result = live["result"]
    collector = result.collector
    complete = sum(1 for record in result.records if not record.incomplete)
    out["ops"] = collector.processes_collected
    out["failed_ops"] = (max(0, collector.processes_collected - complete)
                         + collector.sender.send_errors + result.decode_errors)
    out["checks"]["one complete record per collected process"] = (
        complete == len(result.records) == collector.processes_collected)
    out["checks"]["every planned job ran"] = result.jobs_run == inputs["planned_jobs"]


def run_stream(tracer: Tracer, inputs: dict[str, Any], out: dict[str, Any],
               live: dict[str, Any], *, refresh: bool) -> None:
    """The captured stream into a fresh receiving side, slice by slice.

    ``replay`` (server side only) feeds and finalizes; ``live-query`` (reads
    beside writes) also makes a dashboard refresh after every slice.
    """
    stream, boundaries = inputs["stream"], inputs["boundaries"]
    user_names = inputs["user_names"]
    store, tiered, ingest = receiving_side(tracer, user_names, out["dropped_knobs"])
    handle = ingest.handle_datagram
    laps: Laps = live["laps"]
    stale: list[int] = []
    after_slice = None
    if refresh:
        analysis = LiveAnalysis(user_names=user_names).bind(ingest)

        def after_slice() -> None:
            dashboard_refresh(tracer, analysis, tiered)
            laps.lap("refresh")
            if analysis.statistics()["records_committed"] != store.process_count():
                stale.append(len(laps.spans["refresh"]))

    laps.restart()
    with tracer.span(ROOT_LAYER):
        low = 0
        for high in stream_cuts(boundaries):
            for datagram in stream[low:high]:
                handle(datagram)
            laps.lap("unit")
            low = high
            if after_slice is not None:
                after_slice()
        records = ingest.finalize()
        laps.lap("tail")
        pipeline = render_report(tracer, records, user_names, tiered)
        laps.lap("report")

    window = ["unit", "refresh", "tail"] if refresh else ["unit", "tail"]
    out.update(wall_spans=window + ["report"], ingest_spans=window, datagrams=len(stream))
    live.update(store=store, tiered=tiered, ingest=ingest, records=records,
                user_names=user_names, pipeline=pipeline, stale_refreshes=stale,
                datagram_bytes=sum(map(len, stream)))


def _check_stream(inputs: dict[str, Any], out: dict[str, Any],
                  live: dict[str, Any]) -> None:
    ingest = live["ingest"]
    out["checks"]["no decode error, nothing quarantined"] = (
        ingest.decode_errors == 0 and ingest.quarantined == 0)
    out["checks"]["record set equals the campaign's"] = (
        record_set_digest(live["records"]) == inputs["reference_digest"])


def check_replay(inputs: dict[str, Any], out: dict[str, Any],
                 live: dict[str, Any]) -> None:
    _check_stream(inputs, out, live)
    ingest = live["ingest"]
    # A process without a record stands for all of its datagrams.
    missing = max(0, inputs["reference_count"] - len(live["records"]))
    out["ops"] = out["datagrams"]
    out["failed_ops"] = ingest.decode_errors + ingest.quarantined + missing


def check_live_query(inputs: dict[str, Any], out: dict[str, Any],
                     live: dict[str, Any]) -> None:
    _check_stream(inputs, out, live)
    out["ops"] = len(live["laps"].spans["refresh"])
    out["failed_ops"] = len(live["stale_refreshes"])
    out["checks"]["every refresh saw the committed record count"] = (
        not live["stale_refreshes"])


def process_mode_replay(inputs: dict[str, Any],
                        checks: dict[str, bool]) -> tuple[float | None, str]:
    """The same replay through two OS process workers (untraced).

    The parallel number every committed bench skipped "on 1 core".  When it
    runs, its record set is one more correctness check.
    """
    if len(os.sched_getaffinity(0)) < 2:
        return None, "fewer than 2 cpus visible"
    if not accepted_knobs(ShardedIngest, [], workers="process"):
        return None, "ShardedIngest no longer takes `workers`"
    stream = inputs["stream"]
    _store, _tiered, ingest = receiving_side(
        NullTracer(), inputs["user_names"], [], shards=2, workers="process")
    try:
        start = perf_counter()
        for datagram in stream:
            ingest.handle_datagram(datagram)
        records = ingest.finalize()       # joins both workers
        seconds = perf_counter() - start
    finally:
        ingest.close()                    # no-op after a clean finalize
    checks["process-mode record set equals the campaign's"] = (
        record_set_digest(records) == inputs["reference_digest"])
    return len(stream) / seconds, ""


def run_rebuild_churn(tracer: Tracer, inputs: dict[str, Any], out: dict[str, Any],
                      live: dict[str, Any]) -> None:
    """One developer's edit-compile-run loop: every binary is new."""
    binaries = inputs["binaries"]
    cluster = Cluster()
    corpus = CorpusBuilder(cluster, rng=SeededRNG(inputs["seed"]).fork("corpus"))
    manifest = corpus.install_base_system()
    user = cluster.add_user(CHURN_USER)
    for binary in binaries:
        cluster.filesystem.add_file(binary["path"], binary["image"], executable=True,
                                    mode=0o750, uid=user.uid, gid=user.gid)
    cluster.linker.clear_cache()
    # Capture-only channel: the jobs pay for collection, not for ingest.
    captured: list[bytes] = []
    channel = InMemoryChannel()
    channel.subscribe(captured.append)
    collector = SirenCollector(filesystem=cluster.filesystem, sender=UDPSender(channel),
                               library_path=manifest.siren_library)
    cluster.register_preload_hook(collector)
    user_names = {user.uid: user.username}
    store, tiered, ingest = receiving_side(tracer, user_names, out["dropped_knobs"])
    layers.wire_collection_side(tracer, cluster, collector, live["counters"])
    scripts = [JobScript(
        name=f"churn-{index:04d}", modules=(manifest.siren_module, *binary["modules"]),
        steps=(StepSpec(processes=(ProcessSpec(
            executable=binary["path"], argv=(binary["path"], "-in", "run.in"),
            ranks=4),), uses_srun=True),)) for index, binary in enumerate(binaries)]

    laps: Laps = live["laps"]
    laps.restart()
    with tracer.span(ROOT_LAYER):
        for script in scripts:
            cluster.run_job(CHURN_USER, script)
            laps.lap("unit")
        feed(laps, captured, ingest)
        records = ingest.finalize()
        laps.lap("tail")

    out.update(wall_spans=["unit", "tail"], ingest_spans=["tail"], datagrams=len(captured))
    live.update(cluster=cluster, collector=collector, store=store, tiered=tiered,
                ingest=ingest, records=records, user_names=user_names,
                pipeline=AnalysisPipeline(records, user_names),
                datagram_bytes=channel.bytes_sent)


def check_rebuild_churn(inputs: dict[str, Any], out: dict[str, Any],
                        live: dict[str, Any]) -> None:
    binaries, found = inputs["binaries"], live["found"]
    by_path = {record.executable: record for record in live["records"]}
    bad_jobs = sum(1 for binary in binaries
                   if (record := by_path.get(binary["path"])) is None
                   or record.incomplete or record.file_h != binary["file_h"])
    family_of = {b["path"]: b["family"] for b in binaries if b["unknown"]}
    wrong = sum(1 for path, family in family_of.items()
                if not found.get(path) or found[path][0].label != family)
    out["ops"] = len(binaries) + len(family_of)
    out["failed_ops"] = bad_jobs + wrong
    out["checks"]["every job's rank-0 record is complete, FILE_H == direct hash"] = (
        bad_jobs == 0 and len(live["records"]) == len(binaries))
    out["checks"]["every unknown's top-1 label is its own family"] = wrong == 0


def direct_measurements(workload: str, inputs: dict[str, Any], search: SimilaritySearch,
                        checks: dict[str, bool]) -> dict[str, tuple[Any, str]]:
    """Leaf layers, measured by calling them on this workload's inputs."""
    direct = {"analysis.matrix_s": (layers.matrix_seconds(search), "")}
    if "stream" in inputs:
        direct["transport.decode_us_per_msg"] = (
            layers.decode_us_per_msg(inputs["stream"]), "")
    if workload == "replay":
        direct["ingest.process_msgs_per_s"] = process_mode_replay(inputs, checks)
    if "binaries" in inputs:
        images = [binary["image"] for binary in inputs["binaries"]]
        direct["hashing.hash_mb_per_s"] = (layers.hash_mb_per_s(images), "")
        direct["hashing.compare_us_per_pair"] = (layers.compare_us_per_pair(
            [binary["file_h"] for binary in inputs["binaries"]]), "")
        direct["elf.parse_mb_per_s"] = (layers.elf_parse_mb_per_s(images), "")
    return direct


RUNNERS = {
    "campaign": (run_campaign, check_campaign),
    "replay": (partial(run_stream, refresh=False), check_replay),
    "rebuild-churn": (run_rebuild_churn, check_rebuild_churn),
    "live-query": (partial(run_stream, refresh=True), check_live_query),
}


# ---------------------------------------------------------------------- #
# one repetition
# ---------------------------------------------------------------------- #
def repetition(workload: str, inputs: dict[str, Any], tracer: Tracer) -> dict[str, Any]:
    """Run one repetition of ``workload``; returns its JSON-able result."""
    sizes: Sizes = inputs["sizes"]
    run, check = RUNNERS[workload]
    out: dict[str, Any] = {"workload": workload, "traced": tracer.enabled,
                           "dropped_knobs": [], "checks": {}}
    laps = Laps(tracer)
    live: dict[str, Any] = {"counters": {"bytes_hashed": 0}, "laps": laps}
    gc.collect()
    run(tracer, inputs, out, live)

    records, user_names, tiered = live["records"], live["user_names"], live["tiered"]
    with tracer.span(ROOT_LAYER):
        laps.restart()
        search, found = identify(tracer, laps, records, sizes.identify_rounds)
        if workload != "live-query":
            steady_refreshes(tracer, laps, sizes.steady_refreshes, user_names,
                             live["ingest"], tiered)
    out.update(spans=laps.spans, probes=laps.probes)

    live.update(search=search, found=found, comparisons=search.comparisons,
                datagrams=out["datagrams"])
    check(inputs, out, live)
    ok, live["recompute_s"] = gold_matches(tiered, live["pipeline"])
    out["checks"]["gold tables equal the AnalysisPipeline recompute"] = ok
    unknowns = {instance.executable for instance in search.instances
                if instance.label == UNKNOWN_LABEL}
    out["checks"]["every UNKNOWN instance was identified"] = set(found) == unknowns
    cluster = live.get("cluster")
    out["counts"] = {
        "transport.datagrams": out["datagrams"],
        "hpcsim.procs": cluster.processes_run if cluster is not None else 0,
        "analysis.comparisons": search.comparisons,
        "db.silver_rows": tiered.statistics()["silver_rows"] if tiered is not None else 0,
        "records": len(records),
    }
    if tracer.enabled:
        live["direct"] = direct_measurements(workload, inputs, search, out["checks"])
        # The root spans' wall-clock: every lap and everything between them.
        wall_s = (sum(map(sum, laps.spans.values())) + laps.between_ms) / 1e3
        out["layers"] = layers.layer_metrics(tracer, live, wall_s)
        out["budget"] = tracer.budget()
    return out
