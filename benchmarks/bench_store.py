"""Gold rollup benchmark -- gold query latency vs record scale.

The claim under test is the rollups' whole point: they answer the paper
tables in O(answer), so query latency stays flat while the ``processes``
table grows 100x -- where the recompute-from-records reference (the path
every query took before the rollups) grows linearly.  Three arms at 1x /
10x / 100x record scale, answer size held constant (same users, executables
and object-set variants -- only the record count grows, which is exactly
the fleet-scale shape):

* **gold**: the four table queries (:meth:`TieredStore.user_activity`,
  :meth:`~repro.db.tiered.TieredStore.system_executables`,
  :meth:`~repro.db.tiered.TieredStore.shared_object_variants`,
  :meth:`~repro.db.tiered.TieredStore.python_interpreters`) served from the
  rollups a :class:`~repro.db.store.MessageStore` keeps in step with its
  ``processes`` table,
* **recompute**: the same four answers recomputed from the full record
  list by a fresh :class:`~repro.core.pipeline.AnalysisPipeline` -- the
  O(records) reference,
* **equivalence**: at every scale, every rollup answer is asserted
  byte-identical to the recompute reference before any timing is recorded
  (this assertion *is* the CI smoke gate).

Records go in the way a deployment writes them: one
``insert_processes_if_absent`` into a store with the rollups attached, whose
wall-clock is recorded as ``ingest_seconds``.  The flatness floor -- 100x
gold latency <= 2x of the 1x gold latency -- is enforced in full runs and
recorded skipped-with-reason in smoke mode, where sub-millisecond timings
on shared CI runners are dominated by scheduler noise.

Results are written as machine-readable JSON to ``BENCH_store.json`` in the
repository root (override with ``REPRO_BENCH_JSON``).
``REPRO_BENCH_SMOKE=1`` shrinks the record counts for CI smoke runs.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core import AnalysisPipeline
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.util.tables import TextTable

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SEED = 2025
#: Records at 1x scale; the arms run 1x / 10x / 100x.
BASE_RECORDS = 150 if SMOKE else 2_000
SCALE_FACTORS = (1, 10, 100)
#: Rounds of all-four-table queries per timing sample.
QUERY_ROUNDS = 10 if SMOKE else 50
#: Flatness ceiling: gold latency at 100x must stay within this factor of 1x.
FLATNESS_CEILING = 2.0

RESULTS: dict = {
    "bench": "store",
    "cpus": len(os.sched_getaffinity(0)),
    "smoke": SMOKE,
    "seed": SEED,
    "base_records": BASE_RECORDS,
    "scale_factors": list(SCALE_FACTORS),
    "query_rounds": QUERY_ROUNDS,
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        # Smoke runs (CI) are throwaway measurements: keep the tracked
        # repo-root results file (the recorded full run) untouched.
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_store_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_store.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


#: Fixed answer-size pools: every scale draws from the same users,
#: executables and object-set variants, so the gold answer size is constant
#: while the record count grows.
_USERS = [(1000 + i, f"user_{i + 1}") for i in range(12)]
_SYSTEM_EXES = [f"/usr/bin/tool{i}" for i in range(12)] + ["/usr/bin/bash"]
_PYTHON_EXES = ["/opt/python/3.10/bin/python3", "/opt/python/3.9/bin/python3"]
_USER_EXES = [f"/home/proj/app{i}" for i in range(8)]
_OBJECT_SETS = [
    "/lib64/libc.so.6\n/lib64/libtinfo.so.5\n",
    "/lib64/libc.so.6\n/lib64/libtinfo.so.6\n/lib64/libm.so.6\n",
    "/lib64/libc.so.6\n/opt/cray/libsci.so\n" + "".join(
        f"/opt/cray/lib/libdep{i}.so\n" for i in range(40)),
    "",
]
_MAPS = ["|".join(f"7f{i:04x}000-7f{i:04x}fff r-xp /lib64/libc.so.6"
                  for i in range(30)),
         "|".join(f"55{i:04x}000-55{i:04x}fff rw-p [heap]"
                  for i in range(20))]


def _build_records(count: int, rng: random.Random) -> list[ProcessRecord]:
    """``count`` synthetic consolidated records with constant answer size."""
    records = []
    for index in range(count):
        uid, _name = rng.choice(_USERS)
        category = rng.choices(("system", "python", "user"),
                               weights=(70, 15, 15))[0]
        if category == "system":
            executable = rng.choice(_SYSTEM_EXES)
        elif category == "python":
            executable = rng.choice(_PYTHON_EXES)
        else:
            executable = rng.choice(_USER_EXES)
        records.append(ProcessRecord(
            jobid=f"j{rng.randrange(200)}",
            stepid="0",
            pid=1000 + index % 32768,
            hash=f"h{rng.randrange(64):02x}",
            host=f"nid{index % 64:06d}",
            time=100_000 + index,          # index-unique process keys
            uid=uid,
            executable=executable,
            category=category,
            objects=rng.choice(_OBJECT_SETS),
            objects_h=f"oh{rng.randrange(8)}",
            script_h=f"sh{rng.randrange(16)}" if category == "python" else "",
            modules="PrgEnv-cray:cray-mpich:cray-libsci",
            compilers="Cray clang 14;",
            maps=rng.choice(_MAPS),
            file_metadata="rwxr-xr-x root root 123456",
            python_packages=("numpy,scipy,netCDF4"
                             if category == "python" else ""),
        ))
    return records


def _time_gold(tiered: TieredStore, user_names: dict[int, str]) -> float:
    start = time.perf_counter()
    for _ in range(QUERY_ROUNDS):
        tiered.user_activity()
        tiered.system_executables()
        tiered.shared_object_variants("bash")
        tiered.python_interpreters()
    return (time.perf_counter() - start) / QUERY_ROUNDS


def _time_recompute(records: list[ProcessRecord],
                    user_names: dict[int, str]) -> float:
    rounds = max(1, QUERY_ROUNDS // 10)  # O(records): 10x fewer rounds suffice
    start = time.perf_counter()
    for _ in range(rounds):
        pipeline = AnalysisPipeline(records, user_names)
        pipeline.table2_user_activity()
        pipeline.table3_system_executables()
        pipeline.table4_shared_object_variants("bash")
        pipeline.table8_python_interpreters()
    return (time.perf_counter() - start) / rounds


class TestGoldQueryLatency:
    def test_flat_latency_while_records_grow_100x(self):
        user_names = dict(_USERS)
        rng = random.Random(SEED)
        arms: dict[str, dict] = {}
        table = TextTable(
            ["scale", "records", "ingest s", "gold query s", "recompute s",
             "recompute/gold"],
            title=f"Gold query latency vs record scale (base={BASE_RECORDS})")

        for factor in SCALE_FACTORS:
            label = f"{factor}x"
            records = _build_records(BASE_RECORDS * factor, rng)
            store = MessageStore()
            tiered = TieredStore(user_names)
            store.attach_tiered(tiered)
            start = time.perf_counter()
            store.insert_processes_if_absent(records)
            ingest_seconds = time.perf_counter() - start
            assert tiered.statistics()["rollup_rebuilds"] == 0  # folded, not refolded

            # The CI gate: every rollup answer byte-identical to the
            # recompute reference, before any timing is trusted.
            reference = sorted(records, key=lambda record: record.key)
            pipeline = AnalysisPipeline(reference, user_names)
            assert tiered.user_activity() == pipeline.table2_user_activity()
            assert tiered.system_executables() == pipeline.table3_system_executables()
            assert tiered.shared_object_variants("bash") == \
                pipeline.table4_shared_object_variants("bash")
            assert tiered.python_interpreters() == pipeline.table8_python_interpreters()

            gold_seconds = _time_gold(tiered, user_names)
            recompute_seconds = _time_recompute(reference, user_names)
            arms[label] = {
                "records": len(records),
                "ingest_seconds": ingest_seconds,
                "gold_query_seconds": gold_seconds,
                "recompute_seconds": recompute_seconds,
                "recompute_over_gold": recompute_seconds / gold_seconds,
                "equivalent": True,
            }
            table.add_row([label, f"{len(records):,}", f"{ingest_seconds:.2f}",
                           f"{gold_seconds * 1e3:.3f}ms",
                           f"{recompute_seconds * 1e3:.1f}ms",
                           f"{recompute_seconds / gold_seconds:.1f}x"])
            store.close()
        print()
        print(table.render())

        ratio = (arms["100x"]["gold_query_seconds"]
                 / arms["1x"]["gold_query_seconds"])
        floor: dict = {"ceiling": FLATNESS_CEILING, "ratio_100x_vs_1x": ratio}
        if SMOKE:
            floor["enforced"] = False
            floor["skip_reason"] = (
                "smoke-scale gold queries finish in microseconds, where "
                "shared-runner scheduler noise swamps the 2x flatness "
                "ceiling; the full run enforces it")
            print(f"flatness floor SKIPPED (ratio {ratio:.2f}x): "
                  f"{floor['skip_reason']}")
        else:
            floor["enforced"] = True
            assert ratio <= FLATNESS_CEILING, (
                f"gold query latency grew {ratio:.2f}x while records grew "
                f"100x -- the rollups are no longer O(answer)")
        RESULTS["arms"] = arms
        RESULTS["flatness_floor"] = floor

