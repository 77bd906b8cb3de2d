"""Identification pays per distinct digest and per instance -- pinned.

The index keys its posting lists by *distinct* digest and takes its
normalisation from the comparer's cache; the query ranks positions and builds
only the rows it returns.  These tests pin the three things that design could
silently break: the results (against brute force, against a one-at-a-time
grown index, and against digests recorded before the change), the work counts
(one normalisation per distinct digest string, one key tuple per instance, at
most ``top`` result rows per query), and the ownership of the record list.
"""

from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import similarity, simindex
from repro.analysis.similarity import (
    HASH_COLUMNS,
    ExecutableInstance,
    SimilarityResult,
    SimilaritySearch,
)
from repro.analysis.simindex import DigestIndex
from repro.db.store import ProcessRecord
from repro.hashing import compare_engine
from repro.hashing.compare_engine import normalize_cache_clear, normalize_digest
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import AnalysisError
from repro.util.rng import SeededRNG

from oracles.compare import malformed
from oracles.search import index_threshold, on_brute_force, on_index

_HASHER = FuzzyHasher()
_FIELDS = ("modules_h", "compilers_h", "objects_h", "file_h", "strings_h", "symbols_h")


def _record(executable: str, digests: tuple[str, ...], pid: int = 1) -> ProcessRecord:
    return ProcessRecord(
        jobid="1", stepid="0", pid=pid, hash="h", host="n", time=0, uid=1000,
        executable=executable, category="user", **dict(zip(_FIELDS, digests)))


def churn_like_records(count: int = 120) -> list[ProcessRecord]:
    """``count`` distinct builds of two families, every tenth an ``a.out``.

    Shaped like the ``rebuild-churn`` record set: the environment columns
    (``MO_H``/``CO_H``/``OB_H``) carry two values each, ``SY_H`` twelve, and
    ``FI_H``/``ST_H`` differ per build -- so most index adds meet a digest
    the column has already seen.
    """
    rng = SeededRNG(24)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    bases = [[rng.choice(words) for _ in range(160)] for _ in range(2)]
    symbols = [_HASHER.hash_text(" ".join(rng.choice(words) for _ in range(120)))
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
            (_HASHER.hash_text(environment + "modules"),
             _HASHER.hash_text(environment + "compilers"),
             _HASHER.hash_text(environment + "objects"),
             _HASHER.hash_text(text + " file"), _HASHER.hash_text(text + " strings"),
             symbols[build % 12]),
            pid=build))
    return records


def similarity_digest(records: list[ProcessRecord]) -> str:
    """One digest over everything a search over ``records`` can answer."""
    search = SimilaritySearch(list(records))
    parts = [repr(search.identify_unknown(top=10))]
    parts += [repr(search.query(unknown)) for unknown in search.unknown_instances()]
    parts += [repr(search.pairwise_average_matrix(column)) for column in HASH_COLUMNS]
    parts += [repr(search.comparisons), repr(search.index_stats())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


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
    def test_indexed_and_brute_force_output_is_the_recorded_one(self):
        records = churn_like_records()
        assert on_index(similarity_digest, records) == \
            "6fbc99fd1c44864dffedbeb3535d0d787cc120de5eb44e973eff735891152d4f"
        assert on_brute_force(similarity_digest, records) == \
            "779c7df3f32d9adb57b20829184e1f5cd9c7cc89ec3bff4c377d2d4fa6ca5a55"


# --------------------------------------------------------------------------- #
# repeated digests per column: indexed == brute force == grown one at a time
# --------------------------------------------------------------------------- #
_LONG = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef"
_POOL = (
    "",                                   # missing: never compared, never indexed
    f"24:{_LONG}:{_LONG[:16]}",
    f"24:{_LONG[:20]}0123456789:{_LONG[:16]}",   # shares grams with the one above
    f"48:{_LONG[:16]}zz:{_LONG[8:24]}",          # meets the 24s through its chunk part
    f"24:AAAAAAAA{_LONG[:12]}:qrstuvwx",         # a run the normalisation collapses
    "3:ABC:DE", "3:ABC:DE", "3:ABD:DE",          # gram-less: the exact-signature table
    "96:0123456789+/0123456789:zzzzzzzzz",       # shares nothing with anyone
    *malformed(f"24:{_LONG}:{_LONG[:16]}"),      # parse to nothing: score 0 everywhere
)
_NAMES = ("a.out", "icon", "lmp", "prog")
_instances = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(_NAMES),
              st.tuples(*[st.sampled_from(_POOL)] * 6)),
    min_size=1, max_size=14)


class TestRepeatedDigests:
    @given(_instances)
    @settings(max_examples=120, deadline=None)
    def test_indexed_equals_brute_force_and_a_grown_index(self, rows):
        records = [_record(f"/p/u/d{directory}/{name}", digests, pid=pid)
                   for pid, (directory, name, digests) in enumerate(rows)
                   if digests[3]]          # no FI_H, no instance
        brute = SimilaritySearch(records)
        indexed = SimilaritySearch(records)
        grown = SimilaritySearch([])
        with index_threshold(0):
            for record in records:
                grown.add_records([record])
                assert grown.indexed        # extends the index by this one instance
        searches = ((brute, on_brute_force), (indexed, on_index), (grown, on_index))
        assert [i.key for i in indexed.instances] == [i.key for i in grown.instances]
        try:
            expected = on_brute_force(brute.identify_unknown, top=10)
        except AnalysisError:
            for search in (indexed, grown):
                with pytest.raises(AnalysisError):
                    on_index(search.identify_unknown, top=10)
        else:
            assert on_index(indexed.identify_unknown, top=10) == expected
            assert on_index(grown.identify_unknown, top=10) == expected
        for position in range(len(brute.instances)):
            answers = [on_path(search.query, search.instances[position],
                               candidates=search.instances)
                       for search, on_path in searches]
            assert answers[0] == answers[1] == answers[2]
        for column in HASH_COLUMNS:
            matrices = [on_path(search.pairwise_average_matrix, column)
                        for search, on_path in searches]
            assert matrices[0] == matrices[1] == matrices[2]
        assert indexed.comparisons == grown.comparisons <= brute.comparisons
        assert on_index(indexed.index_stats) == on_index(grown.index_stats)

    def test_every_id_registered_under_a_shared_digest_is_a_candidate(self):
        index = DigestIndex()
        digest = f"24:{_LONG}:{_LONG[:16]}"
        for digest_id in (0, 1, 2):
            assert index.add(digest_id, digest)
        assert index.add(3, digest)
        assert not index.add(4, digest[:12])        # truncated: never a candidate
        assert index.candidates(digest) == {0, 1, 2, 3}
        assert index.candidates(digest[:12]) == set()
        assert (index.stats.digests, index.stats.exact_keys) == (4, 1)
        gramless = DigestIndex()
        gramless.add(0, "3:ABC:DE")
        gramless.add(1, "3:ABC:DE")
        assert gramless.candidates("3:ABC:DE") == {0, 1}

    def test_ties_keep_pool_order_and_only_top_rows_are_built(self, monkeypatch):
        records = churn_like_records(10)
        twin = records[0]
        clones = [_record(f"/proj/u/copy_{n}/icon",
                          tuple(getattr(twin, name) for name in _FIELDS), pid=100 + n)
                  for n in range(4)]
        built = []
        monkeypatch.setattr(similarity, "SimilarityResult",
                            lambda **fields: built.append(1) or SimilarityResult(**fields))
        for threshold in (0, sys.maxsize):
            monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", threshold)
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
# work counts on the 120-instance record set
# --------------------------------------------------------------------------- #
class TestWorkCounts:
    def test_one_normalisation_per_distinct_digest_one_key_per_instance(self, monkeypatch):
        records = churn_like_records()
        distinct = {getattr(record, name) for record in records for name in _FIELDS}
        assert len(distinct) < len(records) * len(_FIELDS) // 2   # the shape that matters
        eliminated = []
        keys = []
        rows = []
        real_eliminate = compare_engine.eliminate_sequences
        real_key = ExecutableInstance.__dict__["key"].func

        monkeypatch.setattr(compare_engine, "eliminate_sequences",
                            lambda signature: eliminated.append(1) or real_eliminate(signature))
        monkeypatch.setattr(ExecutableInstance.__dict__["key"], "func",
                            lambda instance: keys.append(1) or real_key(instance))
        monkeypatch.setattr(similarity, "SimilarityResult",
                            lambda **fields: rows.append(1) or SimilarityResult(**fields))
        normalize_cache_clear()

        monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", 0)
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
        # One key per instance object: each record's instance, twice over.
        assert len(keys) == 2 * len(records)
