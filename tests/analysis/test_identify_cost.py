"""Identification pays per distinct digest and per instance -- pinned.

Each column of a search registers the baselines' *distinct* digests in a
throwaway gate, probes it once per distinct pool digest, and takes its
normalisation from the comparer's cache; the ranking builds only the rows it
returns.  These tests pin the things that design could silently break: the
results (against the all-pairs reference, against a search grown one record
at a time, and against digests recorded before the change), the work counts
(one registration per distinct baseline digest, one probe per distinct pool
digest, one normalisation per distinct digest string, one label and one
instance per distinct instance key and none for a record outside Table 7, at
most ``top`` result rows per query), and the ownership of the record list.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import labels, similarity
from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import (
    HASH_COLUMNS,
    ExecutableInstance,
    SimilarityResult,
    SimilaritySearch,
    instance_key,
)
from repro.analysis.simindex import DigestIndex, IndexStats
from repro.db.store import ProcessRecord
from repro.hashing import compare_engine, ssdeep
from repro.hashing.compare_engine import (
    eliminate_sequences,
    normalize_cache_clear,
    normalize_digest,
)
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import AnalysisError
from repro.workload import CampaignConfig, DeploymentCampaign

from oracles.compare import has_common_substring, malformed, parse_digest
from oracles.search import reference_identify, reference_matrix, reference_query

_HASHER = FuzzyHasher()
_FIELDS = ("modules_h", "compilers_h", "objects_h", "file_h", "strings_h", "symbols_h")


def _record(executable: str, digests: tuple[str, ...], pid: int = 1,
            category: str = "user") -> ProcessRecord:
    return ProcessRecord(
        jobid="1", stepid="0", pid=pid, hash="h", host="n", time=0, uid=1000,
        executable=executable, category=category, **dict(zip(_FIELDS, digests)))


def churn_like_records(count: int = 120) -> list[ProcessRecord]:
    """``count`` distinct builds of two families, every tenth an ``a.out``.

    Shaped like the ``rebuild-churn`` record set: the environment columns
    (``MO_H``/``CO_H``/``OB_H``) carry two values each, ``SY_H`` twelve, and
    ``FI_H``/``ST_H`` differ per build -- so most index adds meet a digest
    the column has already seen.
    """
    rng = random.Random(24)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    bases = [[rng.choice(words) for _ in range(160)] for _ in range(2)]
    symbols = [_HASHER.hash(" ".join(rng.choice(words) for _ in range(120)).encode())
               for _ in range(12)]
    records = []
    for build in range(count):
        family = (build // 10) % 2
        content = list(bases[family])
        for _ in range(4 + build % 17):
            content[rng.randint(0, len(content) - 1)] = rng.choice(words)
        text = " ".join(content)
        environment = f"env-{family} " * 60
        name = "a.out" if build % 10 == 9 else ("icon", "lmp")[family]
        records.append(_record(
            f"/proj/u/build_{build:04d}/{name}",
            (_HASHER.hash((environment + "modules").encode()),
             _HASHER.hash((environment + "compilers").encode()),
             _HASHER.hash((environment + "objects").encode()),
             _HASHER.hash((text + " file").encode()), _HASHER.hash((text + " strings").encode()),
             symbols[build % 12]),
            pid=build))
    return records


def similarity_answers(records: list[ProcessRecord]) -> tuple[str, SimilaritySearch]:
    """One digest over everything a search over ``records`` can answer, and the search."""
    search = SimilaritySearch(list(records))
    parts = [repr(search.identify_unknown(top=10))]
    parts += [repr(search.query(unknown)) for unknown in search.unknown_instances()]
    parts += [repr(search.pairwise_average_matrix(column)) for column in HASH_COLUMNS]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest(), search


# --------------------------------------------------------------------------- #
# the record list belongs to the caller
# --------------------------------------------------------------------------- #
def test_growing_a_search_leaves_the_callers_list_alone():
    records = churn_like_records(20)
    mine = records[:12]
    search = SimilaritySearch(mine)
    assert search.add_records(records[12:]) == 8
    assert len(mine) == 12
    assert search.records == records and len(search.instances) == 20


# --------------------------------------------------------------------------- #
# recorded output: the digests below were taken at the parent of this change
# --------------------------------------------------------------------------- #
class TestRecordedOutput:
    def test_the_answers_are_the_recorded_ones(self):
        # Taken at the parent of the baseline-side gate, where the n-gram
        # index and brute force gave this same digest.
        digest, _ = similarity_answers(churn_like_records())
        assert digest == "3d8de854082b60832aa58938d413172edc910585acaaba392637f743da97f372"

    def test_the_counters_are_the_recorded_ones(self):
        # ``comparisons`` is the pool-side n-gram index's count at the parent
        # (the gate passes the same pairs).  The gate counters are new with
        # it: identify_unknown registers 36 digests and probes 234, the 12
        # queries 72 and 12 x 234, the six matrices 258 and 258; their
        # 7,776 + 7,776 + 6 x 7,140 (baseline, pool instance) pairs are
        # either passed to the comparer or pruned.
        _, search = similarity_answers(churn_like_records())
        assert search.comparisons == 21968
        assert search.index_stats() == IndexStats(
            digests=366, grams=24023, queries=3300,
            candidates_returned=21968, pairs_pruned=36424)


# --------------------------------------------------------------------------- #
# repeated digests per column: the search == the all-pairs reference == grown
# --------------------------------------------------------------------------- #
_LONG = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef"
_POOL = (
    "",                                   # missing: never compared, never registered
    f"24:{_LONG}:{_LONG[:16]}",
    f"24:{_LONG[:20]}0123456789:{_LONG[:16]}",   # shares grams with the one above
    f"48:{_LONG[:16]}zz:{_LONG[8:24]}",          # meets the 24s through its chunk part
    f"12:zzzzzzzz:{_LONG[:20]}",                 # meets the 24s through its double-chunk part
    f"24:AAAAAAAA{_LONG[:12]}:qrstuvwx",         # a run the normalisation collapses
    "3:ABC:DE", "3:ABC:DE", "3:ABD:DE",          # gram-less: the exact-signature table
    "96:0123456789+/0123456789:zzzzzzzzz",       # shares nothing with anyone
    *malformed(f"24:{_LONG}:{_LONG[:16]}"),      # parse to nothing: score 0 everywhere
)
_NAMES = ("a.out", "icon", "lmp", "prog")
_rows = st.lists(
    st.tuples(st.sampled_from(("user", "user", "system", "python")), st.integers(0, 5),
              st.sampled_from(_NAMES), st.tuples(*[st.sampled_from(_POOL)] * 6)),
    min_size=1, max_size=14)


@st.composite
def _streams(draw) -> list[ProcessRecord]:
    """System, Python and user records, some without FI_H, some keys repeated."""
    rows = draw(_rows)
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    rows = draw(st.permutations(rows + [rows[index] for index in repeats]))
    return [_record(f"/p/u/d{directory}/{name}", digests, pid=pid, category=category)
            for pid, (category, directory, name, digests) in enumerate(rows)]


class TestRepeatedDigests:
    @given(_streams())
    @settings(max_examples=120, deadline=None)
    def test_the_search_and_a_grown_one_equal_the_all_pairs_reference(self, records):
        search = SimilaritySearch(records)
        grown = SimilaritySearch([])
        for record in records:
            grown.add_records([record])
        counts = Counter(key for key in map(instance_key, records) if key is not None)
        instances = search.instances
        for each in (search, grown):
            assert [(i.key, i.process_count) for i in each.instances] == list(counts.items())
            assert each.records == records
        assert [(i.key, i.label, i.process_count) for i in instances] == \
            [(i.key, i.label, i.process_count) for i in grown.instances]
        expected = reference_identify(instances, top=10)
        if not expected:
            for each in (search, grown):
                with pytest.raises(AnalysisError):
                    each.identify_unknown(top=10)
        else:
            assert search.identify_unknown(top=10) == expected
            assert grown.identify_unknown(top=10) == expected
        for baseline in instances:
            expected = reference_query(baseline, instances)
            assert search.query(baseline, candidates=instances) == expected
            assert grown.query(baseline, candidates=instances) == expected
        for column in HASH_COLUMNS:
            expected = reference_matrix(instances, column)
            assert search.pairwise_average_matrix(column) == expected
            assert grown.pairwise_average_matrix(column) == expected
        assert search.comparisons == grown.comparisons
        assert search.index_stats() == grown.index_stats()

    def test_every_id_registered_under_a_shared_digest_is_a_candidate(self):
        gate = DigestIndex()
        digest = f"24:{_LONG}:{_LONG[:16]}"
        for digest_id in (0, 1, 2, 3):
            assert gate.add(digest_id, digest)
        assert not gate.add(4, digest[:12])         # truncated: never a candidate
        assert gate.candidates(digest) == 0b1111
        assert gate.candidates(digest[:12]) == 0
        assert (gate.stats.digests, gate.stats.queries) == (4, 2)
        gramless = DigestIndex()
        gramless.add(0, "3:ABC:DE")
        gramless.add(1, "3:ABC:DE")
        assert gramless.candidates("3:ABC:DE") == 0b11

    def test_ties_keep_pool_order_and_only_top_rows_are_built(self, monkeypatch):
        records = churn_like_records(10)
        twin = records[0]
        clones = [_record(f"/proj/u/copy_{n}/icon",
                          tuple(getattr(twin, name) for name in _FIELDS), pid=100 + n)
                  for n in range(4)]
        built = []
        monkeypatch.setattr(similarity, "SimilarityResult",
                            lambda **fields: built.append(1) or SimilarityResult(**fields))
        search = SimilaritySearch(records + clones)
        baseline = search.unknown_instances()[0]
        pool = search.labelled_instances()
        ranked = search.query(baseline, candidates=pool)
        # Equal averages come out in the order the pool listed them.
        for first, second in zip(ranked, ranked[1:]):
            assert first.average >= second.average
        twins = [twin.executable] + [clone.executable for clone in clones]
        assert [row.executable for row in ranked if row.executable in twins] == twins
        del built[:]
        assert search.query(baseline, candidates=pool, top=3) == ranked[:3]
        assert len(built) == 3
        assert search.query(baseline, candidates=pool, top=0) == []


# --------------------------------------------------------------------------- #
# work counts on the 120-instance record set and the benchmark's campaign
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def benchmark_records() -> list[ProcessRecord]:
    """The pipeline benchmark's campaign (scale 0, seed 2025): 4,768 records,
    33 of them user processes forming 32 instances."""
    config = CampaignConfig(scale=0.0, seed=2025, loss_rate=0.0, keep_raw_messages=False)
    return DeploymentCampaign(config=config).run().records


class TestWorkCounts:
    def test_one_normalisation_per_distinct_digest(self, monkeypatch):
        records = churn_like_records()
        distinct = {getattr(record, name) for record in records for name in _FIELDS}
        assert len(distinct) < len(records) * len(_FIELDS) // 2   # the shape that matters
        eliminated = []
        rows = []
        real_eliminate = compare_engine.eliminate_sequences

        monkeypatch.setattr(compare_engine, "eliminate_sequences",
                            lambda signature: eliminated.append(1) or real_eliminate(signature))
        monkeypatch.setattr(similarity, "SimilarityResult",
                            lambda **fields: rows.append(1) or SimilarityResult(**fields))
        normalize_cache_clear()

        search = SimilaritySearch(records)
        found = search.identify_unknown(top=10)
        assert len(found) == 12 and len(rows) == 12 * 10
        # A second search in the same process normalises nothing again.
        SimilaritySearch(records).identify_unknown(top=10)
        parsed = normalize_digest.cache_info()
        assert parsed.misses == parsed.currsize == len(distinct)
        for digest in distinct:               # ... and what it parsed is these
            normalize_digest(digest)
        assert normalize_digest.cache_info().misses == len(distinct)
        assert len(eliminated) == 2 * len(distinct)

    def test_one_label_and_one_instance_per_distinct_key(self, monkeypatch,
                                                         benchmark_records):
        records = benchmark_records
        categories = Counter(record.category for record in records)
        assert (len(records), categories["user"]) == (4768, 33)    # the shape that matters
        labelled: list[str] = []
        built: list[int] = []
        real_label, real_init = similarity.derive_label, ExecutableInstance.__init__
        monkeypatch.setattr(similarity, "derive_label",
                            lambda path: labelled.append(path) or real_label(path))
        monkeypatch.setattr(ExecutableInstance, "__init__", lambda instance, *args, **kwargs:
                            built.append(1) or real_init(instance, *args, **kwargs))

        search = SimilaritySearch(records)
        keys = {instance_key(record) for record in records} - {None}
        assert len(keys) == 32                                 # one record merges
        assert len(search.instances) == len(labelled) == len(built) == len(keys)
        assert sorted(labelled) == sorted(key[0] for key in keys)

        # A system, a Python and a file-hash-less user record build nothing.
        outsiders = [next(record for record in records if record.category == category)
                     for category in ("system", "python")]
        outsiders.append(replace(next(record for record in records
                                      if record.category == "user"), file_h=None))
        del labelled[:], built[:]
        assert SimilaritySearch(outsiders).instances == []
        before = list(search.instances)
        assert search.add_records(outsiders) == 0
        assert list(map(id, search.instances)) == list(map(id, before))
        assert labelled == built == []

    def test_one_label_per_distinct_user_path(self, monkeypatch, benchmark_records):
        """Table 5 and the label map of the matrices label each distinct user
        path once, however many processes ran it; the rows are unchanged."""
        records = benchmark_records
        users = [record.executable for record in records if record.category == "user"]
        paths = set(users)
        assert (len(users), len(paths)) == (33, 31)     # paths ran more than once
        expected = (labels.user_application_table(records, {}),
                    labels.label_by_executable(records))
        labelled: list[str] = []
        real_label = labels.derive_label
        monkeypatch.setattr(labels, "derive_label",
                            lambda path: labelled.append(path) or real_label(path))
        assert labels.user_application_table(records, {}) == expected[0]
        assert sorted(labelled) == sorted(paths)
        del labelled[:]
        assert labels.label_by_executable(records) == expected[1]
        assert sorted(labelled) == sorted(paths)

    def test_one_identify_registers_the_unknowns_and_probes_each_pool_digest_once(
            self, monkeypatch):
        records = churn_like_records()
        registered: list[str] = []
        probed: list[str] = []
        add, candidates = DigestIndex.add, DigestIndex.candidates
        monkeypatch.setattr(DigestIndex, "add", lambda gate, digest_id, digest:
                            registered.append(digest) or add(gate, digest_id, digest))
        monkeypatch.setattr(DigestIndex, "candidates", lambda gate, digest:
                            probed.append(digest) or candidates(gate, digest))
        search = SimilaritySearch(records)
        search.identify_unknown(top=10)
        unknowns, labelled = search.unknown_instances(), search.labelled_instances()
        assert len(unknowns) == 12 and len(registered) <= 12 * len(HASH_COLUMNS)
        assert Counter(registered) == Counter(
            digest for column in HASH_COLUMNS
            for digest in {unknown.hashes[column] for unknown in unknowns})
        assert Counter(probed) == Counter(
            digest for column in HASH_COLUMNS
            for digest in {candidate.hashes[column] for candidate in labelled})
        # The pairs compared are those the pool-side index passed at the parent.
        assert search.comparisons == 2958
        stats = search.index_stats()
        assert (stats.digests, stats.queries) == (len(registered), len(probed))
        assert stats.candidates_returned == search.comparisons
        assert stats.candidates_returned + stats.pairs_pruned == \
            len(unknowns) * len(labelled) * len(HASH_COLUMNS)

    def test_one_identify_is_one_kernel_call_over_every_passed_alignment(self, monkeypatch):
        records = churn_like_records()
        calls = _spy_kernel(monkeypatch)
        search = SimilaritySearch(records)
        search.identify_unknown(top=10)
        assert search.comparisons == 2958
        unknowns, labelled = search.unknown_instances(), search.labelled_instances()
        expected = Counter(
            alignment for column in HASH_COLUMNS
            for first in {unknown.hashes[column] for unknown in unknowns}
            for second in {candidate.hashes[column] for candidate in labelled}
            for alignment in _alignments(first, second))
        assert len(calls) == 1 and Counter(calls[0]) == expected

    def test_a_pool_grown_by_one_instance_aligns_only_its_pairs(self, monkeypatch):
        """A live pool that gains one labelled instance: the LRU answers every
        pair the last answer scored, and only the newcomer's pairs, in one
        kernel call, are aligned afresh."""
        records = churn_like_records()
        newcomer = records[-2]
        assert instance_key(newcomer) is not None and "a.out" not in newcomer.executable
        live = LiveAnalysis()
        live.commit(records[:-2] + records[-1:])
        live.identify_unknown(top=10)
        rebuilt = SimilaritySearch(records).identify_unknown(top=10)
        before = live.hasher.compare_cache_info()
        asked: list[tuple[str, str]] = []
        compare_pairs = FuzzyHasher.compare_pairs
        monkeypatch.setattr(FuzzyHasher, "compare_pairs", lambda hasher, pairs:
                            asked.extend(pairs) or compare_pairs(hasher, pairs))
        calls = _spy_kernel(monkeypatch)
        live.commit([newcomer])
        assert live.identify_unknown(top=10) == rebuilt
        pool = SimilaritySearch(records[:-2] + records[-1:]).instances
        seen = {digest for instance in pool for digest in instance.hashes.values()}
        fresh = {pair for pair in asked if pair[1] not in seen}
        assert fresh and {pair[1] for pair in fresh} <= set(instance_key(newcomer)[1:])
        after = live.hasher.compare_cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == \
            (len(set(asked) - fresh), len(fresh))
        assert len(calls) == 1 and Counter(calls[0]) == Counter(
            alignment for pair in fresh for alignment in _alignments(*pair))


def _spy_kernel(monkeypatch) -> list[list[tuple[str, str]]]:
    """Record the (pattern, text) rows of every multi-pattern kernel call."""
    calls: list[list[tuple[str, str]]] = []
    kernel = ssdeep.lcs_length_many
    monkeypatch.setattr(ssdeep, "lcs_length_many", lambda patterns, texts:
                        calls.append(list(zip(patterns, texts))) or kernel(patterns, texts))
    return calls


def _alignments(first: str, second: str) -> list[tuple[str, str]]:
    """The (pattern, text) signature pairs ``compare(first, second)`` aligns:
    those of matching block sizes that share a 7-gram, the first digest's
    signature as the pattern.  Equal signatures at one block size score 100
    without an alignment."""
    a, b = parse_digest(first), parse_digest(second)
    if a is None or b is None:
        return []
    (b1, *sigs1), (b2, *sigs2) = a, b
    s1a, s2a = map(eliminate_sequences, sigs1)
    s1b, s2b = map(eliminate_sequences, sigs2)
    if b1 == b2 and (s1a, s2a) == (s1b, s2b) and s1a:
        return []
    aligned = {b1: [(s1a, s1b), (s2a, s2b)], b2 * 2: [(s1a, s2b)],
               b1 * 2: [(s2a, s1b)]}.get(b2, [])
    return [(s, t) for s, t in aligned if has_common_substring(s, t)]
