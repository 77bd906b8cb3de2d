"""Hashing engine benchmark -- seed (per-byte) path vs single-pass engine.

Measures, on the same payloads and with identical digests verified first:

* single-thread CTPH throughput (MB/s) of the reference per-byte
  implementation vs :mod:`repro.hashing.engine` across payload regimes, and
* end-to-end campaign wall-clock with the collector on the old vs new path.

Results are written as machine-readable JSON to ``BENCH_hashing.json`` in the
repository root (override with ``REPRO_BENCH_JSON``).  Setting
``REPRO_BENCH_SMOKE=1`` shrinks the payloads and the campaign for CI smoke
runs: equivalence is still asserted, timing is recorded, but the throughput
floor is not enforced (shared CI runners are too noisy to gate on).

On the full run the engine must beat the seed path by >= 3x single-thread
when the vectorised scan kernel is active (>= 1.05x on the pure-Python
fallback), and the default-scale campaign must get measurably faster.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.hashing.engine import scan_backend
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.rng import SeededRNG
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Collected by the tests below, dumped once at module teardown.
RESULTS: dict = {
    "bench": "hashing_engine",
    "backend": scan_backend(),
    "smoke": SMOKE,
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        # Smoke runs (CI) are throwaway measurements: keep the tracked
        # repo-root results file (the recorded full run) untouched.
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_hashing_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_hashing.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


def _payloads() -> list[tuple[str, bytes]]:
    scale = 8 if SMOKE else 1
    return [
        ("random-64k", SeededRNG(1).bytes(65536 // scale)),
        ("random-256k", SeededRNG(2).bytes(262144 // scale)),
        ("random-1m", SeededRNG(3).bytes(1048576 // scale)),
        ("text-like", ("\n".join(f"/opt/cray/pe/lib64/libsci_{i}.so" for i in
                                 range(4096 // scale))).encode()),
        ("repetitive", b"\x00\x01" * (131072 // scale)),
    ]


def _time(fn, *args) -> float:
    best = float("inf")
    for _ in range(1 if SMOKE else 3):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


class TestSingleThreadThroughput:
    def test_engine_speedup(self):
        hasher = FuzzyHasher()
        table = TextTable(["payload", "KiB", "seed MB/s", "engine MB/s", "speedup"],
                          title=f"CTPH throughput (scan backend: {scan_backend()})")
        per_payload = {}
        total_bytes = 0
        total_seed = 0.0
        total_engine = 0.0
        for name, payload in _payloads():
            assert hasher.hash(payload) == hasher.hash_reference(payload)
            seed_s = _time(hasher.hash_reference, payload)
            engine_s = _time(hasher.hash, payload)
            total_bytes += len(payload)
            total_seed += seed_s
            total_engine += engine_s
            per_payload[name] = {
                "bytes": len(payload),
                "seed_mbps": len(payload) / seed_s / 1e6,
                "engine_mbps": len(payload) / engine_s / 1e6,
                "speedup": seed_s / engine_s,
            }
            table.add_row([name, len(payload) // 1024,
                           f"{per_payload[name]['seed_mbps']:.2f}",
                           f"{per_payload[name]['engine_mbps']:.2f}",
                           f"{per_payload[name]['speedup']:.2f}x"])
        speedup = total_seed / total_engine
        table.add_row(["TOTAL", total_bytes // 1024,
                       f"{total_bytes / total_seed / 1e6:.2f}",
                       f"{total_bytes / total_engine / 1e6:.2f}",
                       f"{speedup:.2f}x"])
        print()
        print(table.render())
        RESULTS["single_thread"] = {
            "payloads": per_payload,
            "seed_mbps": total_bytes / total_seed / 1e6,
            "engine_mbps": total_bytes / total_engine / 1e6,
            "speedup": speedup,
        }
        if not SMOKE:
            floor = 3.0 if scan_backend() == "numpy" else 1.05
            assert speedup >= floor, (
                f"engine speedup {speedup:.2f}x below the {floor}x floor")


class TestCampaignWallClock:
    def test_campaign_old_vs_new_path(self):
        scale = 0.0025 if SMOKE else 0.01
        timings = {}
        digests = {}
        config = CampaignConfig(scale=scale, seed=2025, loss_rate=0.0)
        for engine in (False, True):
            campaign = DeploymentCampaign(config=config)
            start = time.perf_counter()
            campaign.prepare()
            if not engine:
                # Baseline arm: every collector digest through the oracle.
                fuzzy = campaign.collector.hasher.hasher
                fuzzy.hash = fuzzy.hash_reference
            result = campaign.run()
            timings[engine] = time.perf_counter() - start
            digests[engine] = sorted((record.executable, record.file_h,
                                      record.strings_h, record.symbols_h)
                                     for record in result.records)
        assert digests[True] == digests[False]  # identical campaign output
        table = TextTable(["path", "seconds"],
                          title=f"Campaign wall-clock (scale={scale})")
        table.add_row(["seed (per-byte)", f"{timings[False]:.2f}"])
        table.add_row(["engine (single-pass)", f"{timings[True]:.2f}"])
        print()
        print(table.render())
        RESULTS["campaign"] = {
            "scale": scale,
            "seed_seconds": timings[False],
            "engine_seconds": timings[True],
            "speedup": timings[False] / timings[True],
        }
        if not SMOKE:
            # Single-sample campaign timings are noisy and hashing is only a
            # slice of campaign wall-clock; gate on "not slower" with a 10%
            # noise allowance (the recorded JSON carries the actual drop).
            assert timings[True] < timings[False] * 1.10, (
                "engine campaign regressed against the seed path")
