"""Comparison-engine benchmark -- bit-parallel batched vs seed scalar scoring.

Every pair surviving the n-gram prune used to pay a per-pair pure-Python
toll: re-parse both digests, re-run run-length normalisation four times,
then an ``O(64*64)`` Python DP.  The engine of
:mod:`repro.hashing.compare_engine` replaces that with a per-digest
normalization cache and a word-parallel LCS kernel, batched one-vs-many via
numpy.  This benchmark measures both levels on campaign-realistic digests:

* **per-pair**: scalar ``compare_reference()`` vs ``compare()`` over sampled
  digest pairs (normalization cache warm, as in any real sweep) --
  microseconds per pair;
* **matrix-level**: ``SimilaritySearch.pairwise_average_matrix`` (the
  Fig 4/5-style all-pairs workload) over every hash column on the
  brute-force path, plus the full Table 7 ``identify_unknown`` sweep --
  both asserted **byte-identical** to a search scoring every pair through
  ``compare_reference`` (a bench-local hasher) before any timing is trusted.

Timings land in ``BENCH_compare.json`` in the repository root (override with
``REPRO_BENCH_JSON``).  ``REPRO_BENCH_SMOKE=1`` shrinks the campaign for CI;
equivalence is asserted either way, and the matrix-level speedup floor of
5x is enforced in both modes -- unlike wall-clock throughput floors, a
same-process A/B ratio is stable enough to gate on shared runners.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.hashing.compare_engine import compare_scan_backend, normalize_cache_clear
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
SCALE = 0.0025 if SMOKE else 0.01
SEED = 2027
#: Matrix-level floor: the batched engine must beat the scalar path by this
#: factor on the all-pairs workload (enforced in smoke mode too).
SPEEDUP_FLOOR = 5.0

RESULTS: dict = {
    "bench": "compare",
    "smoke": SMOKE,
    "scale": SCALE,
    "kernel": compare_scan_backend(),
    "cpus": len(os.sched_getaffinity(0)),
}


def _json_path() -> Path:
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return Path(override)
    if SMOKE:
        return Path(os.environ.get("TMPDIR", "/tmp")) / "BENCH_compare_smoke.json"
    return Path(__file__).resolve().parent.parent / "BENCH_compare.json"


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    path = _json_path()
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path}")


@pytest.fixture(scope="module")
def compare_records():
    """Records of a dedicated campaign (module-scoped: knobs differ from conftest's)."""
    config = CampaignConfig(scale=SCALE, seed=SEED, loss_rate=0.0002)
    return DeploymentCampaign(config=config).run().records


class _ReferenceHasher(FuzzyHasher):
    """Scores every pair through the scalar oracle, ``compare_reference``."""

    def compare(self, first, second):
        return self.compare_reference(first, second)

    def compare_many(self, baseline, candidates):
        return [self.compare_reference(baseline, candidate)
                for candidate in candidates]


HASHERS = {"reference": _ReferenceHasher, "bitparallel": FuzzyHasher}


def _fresh_search(records, backend: str) -> SimilaritySearch:
    """A cold search on the brute-force path with the given hasher."""
    normalize_cache_clear()
    return SimilaritySearch(records, use_index=False, hasher=HASHERS[backend]())


class TestPerPairCompare:
    def test_scalar_compare_speedup(self, compare_records):
        search = SimilaritySearch(compare_records)
        digests = [instance.hashes[column]
                   for instance in search.instances
                   for column in HASH_COLUMNS
                   if instance.hashes.get(column)]
        pairs = [(digests[i], digests[j])
                 for i in range(len(digests))
                 for j in range(i + 1, min(i + 8, len(digests)))]
        assert pairs, "campaign produced no digest pairs to compare"

        timings = {}
        scores = {}
        for backend in ("reference", "bitparallel"):
            hasher = HASHERS[backend]()
            normalize_cache_clear()
            start = time.perf_counter()
            scores[backend] = [hasher.compare(a, b) for a, b in pairs]
            timings[backend] = time.perf_counter() - start
        assert scores["bitparallel"] == scores["reference"]

        per_pair_us = {backend: seconds / len(pairs) * 1e6
                       for backend, seconds in timings.items()}
        speedup = timings["reference"] / timings["bitparallel"] \
            if timings["bitparallel"] else 0.0
        table = TextTable(["backend", "pairs", "total ms", "us/pair"],
                          title=f"Scalar compare() per pair (scale={SCALE})")
        for backend in ("reference", "bitparallel"):
            table.add_row([backend, str(len(pairs)),
                           f"{timings[backend] * 1000:.1f}",
                           f"{per_pair_us[backend]:.1f}"])
        print()
        print(table.render())
        print(f"per-pair speedup: {speedup:.1f}x")
        RESULTS["per_pair"] = {
            "pairs": len(pairs),
            "reference_us": per_pair_us["reference"],
            "bitparallel_us": per_pair_us["bitparallel"],
            "speedup": speedup,
        }


class TestMatrixAndQueryCompare:
    def test_pairwise_matrix_speedup_and_equivalence(self, compare_records):
        rows = []
        totals = {"reference": 0.0, "bitparallel": 0.0}
        for column in HASH_COLUMNS:
            matrices = {}
            for backend in ("reference", "bitparallel"):
                search = _fresh_search(compare_records, backend)
                start = time.perf_counter()
                matrices[backend] = search.pairwise_average_matrix(column)
                seconds = time.perf_counter() - start
                totals[backend] += seconds
                if backend == "reference":
                    reference_ms = seconds * 1000
                else:
                    bitparallel_ms = seconds * 1000
            # identical answers first -- the speedup is meaningless otherwise
            assert matrices["bitparallel"] == matrices["reference"], column
            rows.append({"column": column, "reference_ms": reference_ms,
                         "bitparallel_ms": bitparallel_ms,
                         "speedup": reference_ms / bitparallel_ms
                         if bitparallel_ms else 0.0})

        instances = len(SimilaritySearch(compare_records).instances)
        table = TextTable(
            ["column", "reference ms", "bitparallel ms", "speedup"],
            title=f"Pairwise matrix ({instances} instances, brute force,"
                  f" scale={SCALE})")
        for row in rows:
            table.add_row([row["column"], f"{row['reference_ms']:.1f}",
                           f"{row['bitparallel_ms']:.1f}",
                           f"{row['speedup']:.1f}x"])
        print()
        print(table.render())

        aggregate = totals["reference"] / totals["bitparallel"] \
            if totals["bitparallel"] else 0.0
        print(f"aggregate matrix speedup: {aggregate:.1f}x over"
              f" {len(HASH_COLUMNS)} columns")
        RESULTS["pairwise_matrix"] = {
            "instances": instances,
            "columns": rows,
            "reference_ms_total": totals["reference"] * 1000,
            "bitparallel_ms_total": totals["bitparallel"] * 1000,
            "speedup": aggregate,
        }
        assert aggregate >= SPEEDUP_FLOOR, (
            f"batched bit-parallel matrix must be at least {SPEEDUP_FLOOR}x"
            f" faster than the scalar path (measured {aggregate:.1f}x)")

    def test_identify_unknown_speedup_and_equivalence(self, compare_records):
        timings = {}
        answers = {}
        for backend in ("reference", "bitparallel"):
            search = _fresh_search(compare_records, backend)
            start = time.perf_counter()
            answers[backend] = search.identify_unknown(top=10)
            timings[backend] = time.perf_counter() - start
        assert answers["bitparallel"] == answers["reference"]
        speedup = timings["reference"] / timings["bitparallel"] \
            if timings["bitparallel"] else 0.0
        print(f"\nidentify_unknown (brute force): reference"
              f" {timings['reference'] * 1000:.1f} ms, bitparallel"
              f" {timings['bitparallel'] * 1000:.1f} ms ({speedup:.1f}x)")
        RESULTS["identify_unknown"] = {
            "baselines": len(answers["bitparallel"]),
            "reference_ms": timings["reference"] * 1000,
            "bitparallel_ms": timings["bitparallel"] * 1000,
            "speedup": speedup,
        }
