"""Ablation -- fuzzy hashing vs cryptographic hashing vs byte-by-byte comparison.

Section 2.1 motivates fuzzy hashing with two claims: (a) comparing fuzzy
hashes is faster and more scalable than comparing files byte-by-byte, and
(b) unlike cryptographic hashes, fuzzy hashes still recognise slightly
modified executables.  These benches measure both on the synthetic corpus.
"""

import hashlib
import sys
import time

import pytest

from repro.analysis.similarity import SimilaritySearch
from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import ICON
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher, compare, fuzzy_hash, fuzzy_hash_text
from repro.hpcsim.cluster import Cluster
from repro.util.errors import AnalysisError
from repro.util.rng import SeededRNG
from repro.util.tables import TextTable
from repro.workload import CampaignConfig, DeploymentCampaign


@pytest.fixture(scope="module")
def icon_variants() -> list[bytes]:
    """The raw bytes of every installed ICON variant (realistic executables)."""
    cluster = Cluster()
    builder = CorpusBuilder(cluster)
    builder.install_base_system()
    user = cluster.add_user("bench")
    records = builder.install_package(ICON, user)
    return [cluster.filesystem.read(record.path) for record in records]


@pytest.fixture(scope="module")
def icon_digests(icon_variants) -> list[str]:
    return [fuzzy_hash(content) for content in icon_variants]


class TestHashingThroughput:
    def test_fuzzy_hashing_one_executable(self, benchmark, icon_variants):
        digest = benchmark(fuzzy_hash, icon_variants[0])
        assert digest.count(":") == 2

    def test_sha256_one_executable(self, benchmark, icon_variants):
        """Reference point: a cryptographic hash of the same executable."""
        digest = benchmark(lambda data: hashlib.sha256(data).hexdigest(), icon_variants[0])
        assert len(digest) == 64


class TestComparisonScaling:
    def test_pairwise_fuzzy_comparison(self, benchmark, icon_digests):
        def all_pairs() -> int:
            total = 0
            for i in range(len(icon_digests)):
                for j in range(i + 1, len(icon_digests)):
                    total += compare(icon_digests[i], icon_digests[j])
            return total

        total = benchmark(all_pairs)
        assert total > 0

    def test_pairwise_byte_comparison(self, benchmark, icon_variants):
        """The alternative SIREN avoids: comparing raw files byte-by-byte."""
        def all_pairs() -> int:
            matches = 0
            for i in range(len(icon_variants)):
                for j in range(i + 1, len(icon_variants)):
                    a, b = icon_variants[i], icon_variants[j]
                    matches += sum(x == y for x, y in zip(a, b))
            return matches

        assert benchmark(all_pairs) > 0

    def test_fuzzy_comparison_is_cheaper_than_byte_comparison(self, icon_digests, icon_variants):
        import time

        start = time.perf_counter()
        for i in range(len(icon_digests)):
            for j in range(i + 1, len(icon_digests)):
                compare(icon_digests[i], icon_digests[j])
        fuzzy_time = time.perf_counter() - start

        start = time.perf_counter()
        for i in range(len(icon_variants)):
            for j in range(i + 1, len(icon_variants)):
                a, b = icon_variants[i], icon_variants[j]
                sum(x == y for x, y in zip(a, b))
        byte_time = time.perf_counter() - start

        table = TextTable(["method", "seconds (all pairs)"], title="Comparison cost")
        table.add_row(["fuzzy-hash compare", f"{fuzzy_time:.4f}"])
        table.add_row(["byte-by-byte", f"{byte_time:.4f}"])
        print()
        print(table.render())
        assert fuzzy_time < byte_time


class TestRecognitionAbility:
    def test_crypto_hash_fails_on_variants_fuzzy_succeeds(self, icon_variants):
        """A one-byte change defeats SHA-256 matching but not fuzzy matching."""
        original = icon_variants[0]
        mutated = bytearray(original)
        mutated[len(mutated) // 2] ^= 0xFF
        mutated = bytes(mutated)

        assert hashlib.sha256(original).hexdigest() != hashlib.sha256(mutated).hexdigest()
        assert compare(fuzzy_hash(original), fuzzy_hash(mutated)) >= 90

    def test_variant_recognition_rate(self, icon_variants, icon_digests):
        """Most ICON variants recognise each other (score > 0) via the raw-file hash."""
        recognised = 0
        pairs = 0
        for i in range(len(icon_digests)):
            for j in range(i + 1, len(icon_digests)):
                pairs += 1
                if compare(icon_digests[i], icon_digests[j]) > 0:
                    recognised += 1
        assert recognised / pairs > 0.5

    def test_unrelated_payloads_not_recognised(self):
        rng = SeededRNG(5)
        a = fuzzy_hash(rng.bytes(16384))
        b = fuzzy_hash(rng.bytes(16384))
        assert compare(a, b) == 0

    def test_signature_size_is_compact(self, icon_variants, icon_digests):
        """Fuzzy digests are tiny compared with the executables they summarise."""
        total_content = sum(len(content) for content in icon_variants)
        total_digest = sum(len(digest) for digest in icon_digests)
        assert total_digest < total_content / 100


class TestIndexedSimilarityScaling:
    """Brute-force vs n-gram-indexed similarity search across campaign scales.

    The paper's Table 7 search is all-pairs: every UNKNOWN baseline meets
    every known instance on six hash columns, and the pairwise ablation
    matrix meets every instance pair.  The inverted 7-gram index
    (:mod:`repro.analysis.simindex`) only ever hands plausibly-similar pairs
    to the signature alignment; this bench runs both paths over campaigns of
    increasing scale, checks the outputs stay identical, and reports how many
    digest comparisons the index avoided.
    """

    #: Builds of the edit-compile-run row: campaigns stay near 32 instances
    #: at every scale, below the measured crossover (``DEFAULT_INDEX_THRESHOLD``),
    #: so the row the wall-clock gate runs on has to be grown separately.
    CHURN_BUILDS = 480

    def test_indexed_search_prunes_comparisons_across_scales(self, bench_campaign,
                                                             bench_scale_value):
        scales = sorted({0.0025, 0.005, 0.01, bench_scale_value})
        table = TextTable(
            ["scale", "instances", "brute cmps", "indexed cmps", "pruned %",
             "brute ms", "indexed ms"],
            title="Similarity search: brute force vs n-gram index")
        measured: list[tuple[float, int, int]] = []

        for scale in [*scales, None]:
            if scale is None:
                records = self._churn_records(self.CHURN_BUILDS)
            elif scale == bench_scale_value:
                records = bench_campaign.records
            else:
                config = CampaignConfig(scale=scale, seed=2025, loss_rate=0.0002)
                records = DeploymentCampaign(config=config).run().records

            brute_ms = indexed_ms = float("inf")
            for _ in range(3):  # best of three, each from a fresh search (cold index, cold LRU)
                brute = SimilaritySearch(records, index_threshold=sys.maxsize)
                indexed = SimilaritySearch(records, index_threshold=0)
                brute_out, elapsed = self._run_search(brute)
                brute_ms = min(brute_ms, elapsed)
                indexed_out, elapsed = self._run_search(indexed)
                indexed_ms = min(indexed_ms, elapsed)
                assert brute_out == indexed_out  # identical tables + matrix, every scale

            pruned = 100.0 * (1 - indexed.comparisons / brute.comparisons) \
                if brute.comparisons else 0.0
            table.add_row([f"{scale:g}" if scale is not None else "churn",
                           len(brute.instances), brute.comparisons,
                           indexed.comparisons, f"{pruned:.1f}",
                           f"{brute_ms:.1f}", f"{indexed_ms:.1f}"])
            if scale is not None:
                measured.append((scale, brute.comparisons, indexed.comparisons))

        print()
        print(table.render())

        at_scale = [(b, i) for scale, b, i in measured if scale >= 0.01]
        assert at_scale, "bench must include at least one scale >= 0.01"
        for brute_comparisons, indexed_comparisons in at_scale:
            assert indexed_comparisons < brute_comparisons
        # The largest row is the one the index exists for: fewer comparisons
        # *and* less time, or the pruning is not paying for its bookkeeping.
        assert indexed.comparisons < brute.comparisons
        assert indexed_ms <= brute_ms, (indexed_ms, brute_ms)

    @staticmethod
    def _churn_records(count: int) -> list[ProcessRecord]:
        """``count`` builds of two families in two environments, every tenth an ``a.out``."""
        rng = SeededRNG(24)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        bases = [[rng.choice(words) for _ in range(160)] for _ in range(2)]
        records = []
        for build in range(count):
            family = (build // 10) % 2
            content = list(bases[family])
            for _ in range(4 + build % 17):
                content[rng.randint(0, len(content) - 1)] = rng.choice(words)
            text, environment = " ".join(content), f"env-{family} " * 60
            name = "a.out" if build % 10 == 9 else ("icon", "lmp")[family]
            records.append(ProcessRecord(
                jobid="1", stepid="0", pid=build, hash="h", host="n", time=0, uid=1000,
                executable=f"/proj/u/build_{build:04d}/{name}", category="user",
                modules_h=fuzzy_hash_text(environment + "modules"),
                compilers_h=fuzzy_hash_text(environment + "compilers"),
                objects_h=fuzzy_hash_text(environment + "objects"),
                file_h=fuzzy_hash_text(text + " file"),
                strings_h=fuzzy_hash_text(text + " strings"),
                symbols_h=fuzzy_hash_text(" ".join(content[:120 - build % 12]))))
        return records

    @staticmethod
    def _run_search(search: SimilaritySearch) -> tuple[tuple, float]:
        """Run Table 7 + the pairwise matrix; return (results, elapsed ms)."""
        start = time.perf_counter()
        try:
            searches = search.identify_unknown(top=10)
        except AnalysisError:  # no UNKNOWN instance at tiny scales
            searches = {}
        matrix = search.pairwise_average_matrix()
        elapsed_ms = (time.perf_counter() - start) * 1000
        return (searches, matrix), elapsed_ms


class TestHasherConfiguration:
    def test_disabling_double_signature_requirement(self, icon_variants):
        """Ablation of the common-substring guard: scores can only grow without it."""
        strict = FuzzyHasher(require_common_substring=True)
        loose = FuzzyHasher(require_common_substring=False)
        a, b = icon_variants[0], icon_variants[1]
        strict_score = strict.compare(strict.hash(a), strict.hash(b))
        loose_score = loose.compare(loose.hash(a), loose.hash(b))
        assert loose_score >= strict_score
