"""Property tests pinning live-vs-rebuild equivalence.

The contract of :mod:`repro.analysis.live` is byte-identical equality with a
fresh rebuild: at *every* snapshot, every table row (including tie order) and
every similarity ranking produced by the incrementally maintained
:class:`LiveAnalysis` must equal what the batch tables
(``tests/oracles/tables.py``) and a fresh
:class:`~repro.analysis.similarity.SimilaritySearch` compute over the same
record set.  These tests stream synthetic record sequences (delivered out of
canonical order, with open-group overlays, across the index threshold) and
full campaigns (seeds x loss rates, batch and streaming ingest) and compare
at each step.  Table 7 is answered from memory while its inputs hold, so a
work-count test pins that an unchanged pool costs no comparison, and a
hypothesis state machine checks the memoised answer after every step of
random commits, peeks and ``top`` changes.  Brute force and the n-gram index
are forced by patching the one threshold constant the search reads at query
time (``oracles/search.py``).
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis import simindex
from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilaritySearch
from repro.analysis.simindex import DigestIndex, SimilarityIndex
from repro.analysis.stats import activity_totals
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher, fuzzy_hash_text
from repro.util.errors import AnalysisError
from repro.util.rng import SeededRNG
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles import tables
from oracles.search import index_threshold, on_brute_force


def _canonical(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Snapshot order: the canonical process-key sort every rebuild sees."""
    return sorted(records, key=lambda r: (r.jobid, r.stepid, r.pid, r.hash,
                                          r.host, r.time))


def _assert_views_equal(live: LiveAnalysis, records: list[ProcessRecord],
                        user_names: dict[int, str]) -> None:
    """Every live view equals a fresh rebuild over ``records`` -- byte for byte.

    The live and fresh searches run under the threshold in force; the brute
    force one compares every pair whatever it is.
    """
    reference = _canonical(records)
    table2 = tables.user_activity_table(reference, user_names)
    assert live.table2_user_activity() == table2
    assert live.table3_system_executables() == \
        tables.system_executable_table(reference, user_names)
    assert live.table3_system_executables(top=None) == \
        tables.system_executable_table(reference, user_names, top=None)
    for name in ("bash", "tool0", "a.out", "absent"):
        assert live.table4_shared_object_variants(name) == \
            tables.shared_object_variant_table(reference, name)
    assert live.table8_python_interpreters() == \
        tables.python_interpreter_table(reference, user_names)

    fresh = SimilaritySearch(reference)
    assert [(i.key, i.label, i.process_count) for i in live.instances] == \
        [(i.key, i.label, i.process_count) for i in fresh.instances]
    brute = SimilaritySearch(reference)
    try:
        expected = fresh.identify_unknown(top=10)
    except AnalysisError:
        expected = None
        with pytest.raises(AnalysisError):
            live.identify_unknown(top=10)
    if expected is not None:
        assert live.identify_unknown(top=10) == expected
        # and both == brute force
        assert on_brute_force(brute.identify_unknown, top=10) == expected
    for baseline in fresh.instances[:3]:
        assert live.query(baseline) == fresh.query(baseline)


# --------------------------------------------------------------------------- #
# synthetic record streams (unit-level, fine-grained control)
# --------------------------------------------------------------------------- #
def _user_hashes(content: str, environment: str) -> dict[str, str]:
    """The six Table 7 digests of a user executable's content in an environment."""
    return dict(
        modules_h=fuzzy_hash_text(environment + " modules " * 30),
        compilers_h=fuzzy_hash_text(environment + " compilers " * 30),
        objects_h=fuzzy_hash_text(environment + " objects " * 30),
        file_h=fuzzy_hash_text(content + " file"),
        strings_h=fuzzy_hash_text(content + " strings"),
        symbols_h=fuzzy_hash_text(content + " symbols"),
    )


def _record(pid: int, *, category: str, executable: str, jobid: str,
            uid: int = 1000, content: str = "", environment: str = "env",
            script: str = "") -> ProcessRecord:
    hashes = {}
    if category == "user":
        hashes = _user_hashes(content, environment)
    elif category == "system":
        hashes = dict(objects_h=fuzzy_hash_text(environment + " objects " * 30),
                      objects=f"/lib64/libc.so.6\n/lib64/libtinfo.so.{5 + pid % 3}")
    elif category == "python":
        hashes = dict(script_h=fuzzy_hash_text(script) if script else "")
    return ProcessRecord(
        jobid=jobid, stepid="0", pid=pid, hash=f"{pid:032x}", host=f"n{pid % 3}",
        time=100 + pid, uid=uid, executable=executable, category=category,
        **hashes)


def _synthetic_stream(seed: int = 5, count: int = 48) -> list[ProcessRecord]:
    """A mixed-category stream with an UNKNOWN family, unique process keys."""
    rng = SeededRNG(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    records = []
    for pid in range(count):
        jobid = str(1 + pid // 6)
        uid = 1000 + pid % 5
        kind = rng.choice(["user", "user", "system", "python"])
        if kind == "system":
            records.append(_record(pid, category="system", jobid=jobid, uid=uid,
                                   executable=f"/usr/bin/tool{pid % 4}",
                                   environment=f"env-{pid % 2}"))
        elif kind == "python":
            records.append(_record(pid, category="python", jobid=jobid, uid=uid,
                                   executable=f"/usr/bin/python3.1{pid % 2}",
                                   script=f"/u/run{pid % 3}.py"))
        else:
            family = pid % 3
            base = [rng.choice(words) for _ in range(120)]
            # family 0 runs under a nondescript name -> UNKNOWN baseline;
            # the others carry label-rule names so candidates are labelled
            name = ("a.out", "icon", "lmp")[family]
            records.append(_record(pid, category="user", jobid=jobid, uid=uid,
                                   executable=f"/proj/u/f{family}/{name}",
                                   content=" ".join(base),
                                   environment=f"env-{family}"))
    # deliver out of canonical key order to stress first-occurrence tracking
    return rng.sample(records, len(records))


class TestSyntheticStreamEquivalence:
    def test_committed_deltas_match_rebuild_at_every_step(self):
        stream = _synthetic_stream()
        live = LiveAnalysis({1000: "user_a", 1001: "user_b"})
        committed: list[ProcessRecord] = []
        for start in range(0, len(stream), 5):
            chunk = stream[start:start + 5]
            live.commit(chunk)
            committed.extend(chunk)
            _assert_views_equal(live, committed, live.user_names)

    def test_open_group_overlay_matches_rebuild(self):
        stream = _synthetic_stream(seed=9)
        live = LiveAnalysis({})
        committed = stream[:30]
        live.commit(committed)
        for cut in (1, 4, 9):
            open_records = stream[30:30 + cut]
            live.refresh_open(open_records)
            _assert_views_equal(live, committed + open_records, {})
        # an open group closing moves its key from overlay to committed
        live.commit(stream[30:34])
        live.refresh_open(stream[34:36])
        _assert_views_equal(live, stream[:36], {})

    def test_resurrected_open_keys_are_dropped(self):
        stream = _synthetic_stream(seed=3)
        live = LiveAnalysis({})
        live.commit(stream[:20])
        before = (live.table2_user_activity(), live.table3_system_executables())
        # a very late message resurrects an already-finalized key: the peek
        # carries it, but the live view must keep the committed record
        live.refresh_open([stream[4]])
        assert (live.table2_user_activity(), live.table3_system_executables()) == before
        _assert_views_equal(live, stream[:20], {})

    def test_pool_is_built_once_per_pulled_state(self):
        stream = _synthetic_stream(seed=11)
        live = LiveAnalysis({})
        live.commit(stream[:30])
        live.refresh_open(stream[30:33])
        pool = live._pool()
        # One dashboard refresh reads the pool several times for one state...
        assert live.unknown_instances() and live.identify_unknown(top=10)
        live.commit([])
        live.refresh_open(list(stream[30:33]))      # an equal re-peek
        assert live._pool() is pool
        # ... and every change of what it is built from drops it.
        handed_out = live.instances
        handed_out.clear()                          # a copy: the cache is not the caller's
        assert live._pool() is pool and len(pool) == len(live.instances)
        live.refresh_open(stream[30:34])
        assert live._pool() is not pool
        _assert_views_equal(live, stream[:34], {})
        pool = live._pool()
        live.commit(stream[30:34])
        assert live._pool() is not pool
        live.refresh_open([])
        _assert_views_equal(live, stream[:34], {})

    def test_index_growth_across_threshold_stays_equivalent(self, monkeypatch):
        """add() growth crossing the index threshold: live answers stay identical
        (brute force below the threshold, incrementally grown index above)."""
        stream = _synthetic_stream(seed=11, count=60)
        monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", 6)
        live = LiveAnalysis({})
        committed: list[ProcessRecord] = []
        crossed = False
        for start in range(0, len(stream), 4):
            chunk = stream[start:start + 4]
            live.commit(chunk)
            committed.extend(chunk)
            _assert_views_equal(live, committed, {})
            if live.index_stats() is not None:
                crossed = True
        assert crossed, "the stream never crossed the index threshold"

    def test_commit_rejects_duplicate_keys_without_corrupting_state(self):
        stream = _synthetic_stream()
        live = LiveAnalysis({})
        live.commit(stream[:5])
        before = (live.table2_user_activity(), live.table3_system_executables(),
                  live.statistics())
        # duplicate against committed state, buried mid-batch ...
        with pytest.raises(AnalysisError):
            live.commit([stream[5], stream[2], stream[6]])
        # ... and duplicate within one batch: both reject the WHOLE batch
        with pytest.raises(AnalysisError):
            live.commit([stream[7], stream[7]])
        assert (live.table2_user_activity(), live.table3_system_executables(),
                live.statistics()) == before
        _assert_views_equal(live, stream[:5], {})
        # the rejected records are still committable afterwards
        live.commit(stream[5:8])
        _assert_views_equal(live, stream[:8], {})

    def test_an_unchanged_pool_is_answered_without_a_comparison(self, monkeypatch):
        stream = _synthetic_stream(seed=11)
        monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", 0)
        hasher = FuzzyHasher()
        live = LiveAnalysis({}, hasher=hasher)
        live.commit(stream[:30])
        live.refresh_open(stream[30:33])
        probes = [0]
        candidates = DigestIndex.candidates

        def counted(index, digest):
            probes[0] += 1
            return candidates(index, digest)

        monkeypatch.setattr(DigestIndex, "candidates", counted)

        def work():
            info = hasher.compare_cache_info()
            return info.hits, info.misses, probes[0]

        first = live.identify_unknown(top=10)
        assert probes[0] > 0, "the index is not on the path"
        before = work()
        # An unchanged pool, an equal re-peek and a commit that only bumps a
        # process_count are all answered without an index probe or LRU lookup.
        assert live.identify_unknown(top=10) == first and work() == before
        live.refresh_open(list(stream[30:33]))
        assert live.identify_unknown(top=10) == first and work() == before
        counts = [instance.process_count for instance in live.instances]
        user = next(record for record in stream[:30] if record.category == "user")
        bump = replace(user, pid=10_000, hash=f"{10_000:032x}")
        live.commit([bump])
        assert [instance.process_count for instance in live.instances] != counts
        assert live.identify_unknown(top=10) == first and work() == before
        assert live.statistics()["identify_reused"] == 3
        # A new instance recomputes, and equals a fresh search.
        novel = _record(10_001, category="user", executable="/proj/u/f1/icon",
                        jobid="9", content="novel " * 40, environment="env-1")
        live.commit([novel])
        assert live.identify_unknown(top=10) == \
            SimilaritySearch(_canonical(stream[:33] + [bump, novel])).identify_unknown(top=10)
        assert work() != before
        assert live.statistics()["identify_reused"] == 3

    def test_a_returned_answer_is_the_callers_to_change(self):
        stream = _synthetic_stream(seed=11)
        live = LiveAnalysis({})
        live.commit(stream[:33])
        answer = live.identify_unknown(top=10)
        kept = {executable: list(rows) for executable, rows in answer.items()}
        executable, rows = next(iter(answer.items()))
        assert rows, "the first UNKNOWN has no candidate"
        rows.append(rows[0])
        answer["/elsewhere"] = []
        assert live.identify_unknown(top=10) == kept
        live.identify_unknown(top=10)[executable].clear()
        assert live.identify_unknown(top=10) == kept
        live.identify_unknown(top=10).clear()
        assert live.identify_unknown(top=10) == kept
        assert live.statistics()["identify_reused"] == 5

    def test_a_returned_rows_scores_cannot_change_the_next_answer(self):
        stream = _synthetic_stream(seed=11)
        live = LiveAnalysis({})
        live.commit(stream[:33])
        first = live.identify_unknown(top=10)
        pinned = repr(first)
        executable, rows = next(iter(first.items()))
        assert rows, "the first UNKNOWN has no candidate"
        scores = rows[0].scores
        with contextlib.suppress(TypeError):
            scores["FI_H"] = -1
        assert repr(live.identify_unknown(top=10)) == pinned
        for mutate in (lambda: scores.update(FI_H=-1), lambda: scores.pop("FI_H"),
                       scores.clear, lambda: scores.setdefault("X", 0)):
            with pytest.raises(TypeError):
                mutate()
        assert repr(live.identify_unknown(top=10)) == pinned
        assert live.statistics()["identify_reused"] == 2

    @pytest.mark.parametrize("threshold", [0, sys.maxsize], ids=["index", "brute-force"])
    def test_an_instances_hashes_cannot_change_the_pool(self, monkeypatch, threshold):
        """An instance handed out by ``instances`` is the search's own: a
        digest written through it would change the pool the index and the
        Table 7 memo were built over.  Its ``hashes`` refuse every change."""
        monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", threshold)
        stream = _synthetic_stream(seed=11)
        live = LiveAnalysis({})
        live.commit(stream[:33])
        live.identify_unknown(top=10)
        instances = live.instances
        for instance in instances:
            with contextlib.suppress(TypeError):
                instance.hashes["FI_H"] = instances[0].hashes["FI_H"]
        hashes = instances[0].hashes
        for mutate in (lambda: hashes.__setitem__("FI_H", ""), lambda: hashes.pop("FI_H"),
                       lambda: hashes.update(FI_H=""), hashes.clear):
            with pytest.raises(TypeError):
                mutate()
        novel = _record(10_001, category="user", executable="/proj/u/f1/icon",
                        jobid="9", content="novel " * 40, environment="env-1")
        live.commit([novel])      # a new instance: the search runs again
        assert live.identify_unknown(top=10) == \
            SimilaritySearch(_canonical(stream[:33] + [novel])).identify_unknown(top=10)


class TestIncrementalIndexAndSearchGrowth:
    def test_similarity_index_add_equals_batch_build(self):
        stream = [r for r in _synthetic_stream(seed=7) if r.category == "user"]
        rows = [SimilaritySearch([record]).instances[0].hashes for record in stream]
        batch = SimilarityIndex(rows, columns=("FI_H", "MO_H"))
        grown = SimilarityIndex([], columns=("FI_H", "MO_H"))
        for row in rows:
            grown.add(row)
        assert len(grown) == len(batch)
        for row in rows:
            for column in ("FI_H", "MO_H"):
                digest = row[column]
                assert grown.candidates(digest, column) == \
                    batch.candidates(digest, column)

    def test_add_records_refreshes_a_built_index(self, monkeypatch):
        """Regression test for the staleness bug: the n-gram index used to be
        cached forever, so records added after the first indexed query were
        invisible to every later query."""
        stream = [r for r in _synthetic_stream(seed=13, count=60)
                  if r.category == "user"]
        half = len(stream) // 2
        monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", 4)
        search = SimilaritySearch(stream[:half])
        baseline = search.unknown_instances()[0]
        assert search.indexed
        search.query(baseline)  # builds and uses the index
        search.add_records(stream[half:])
        fresh = SimilaritySearch(stream)
        assert [(i.key, i.process_count) for i in search.instances] == \
            [(i.key, i.process_count) for i in fresh.instances]
        assert search.query(baseline) == fresh.query(baseline)
        assert search.identify_unknown(top=10) == fresh.identify_unknown(top=10)
        assert search.identify_unknown(top=10) == \
            on_brute_force(SimilaritySearch(stream).identify_unknown, top=10)


# --------------------------------------------------------------------------- #
# Table 7 from memory, over random interleavings (hypothesis)
# --------------------------------------------------------------------------- #
#: Three UNKNOWN paths and three labelled ones.  Moving a first key reorders
#: the UNKNOWN baselines, and a digest set under two labelled paths ties
#: exactly, so it reorders the tied rows too.
_PATHS = ("/proj/a/a.out", "/proj/b/run", "/proj/c/tool", "/proj/a/icon",
          "/proj/b/icon_copy", "/proj/c/lmp")


def _digest_sets() -> tuple[dict[str, str], ...]:
    """Six digest sets: three contents (two of them near copies) x two environments."""
    rng = SeededRNG(21)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    near = [rng.choice(words) for _ in range(120)]
    contents = (near, near[:100] + [rng.choice(words) for _ in range(20)],
                [rng.choice(words) for _ in range(120)])
    return tuple(_user_hashes(" ".join(content), environment)
                 for content in contents for environment in ("env-0", "env-1"))


_DIGESTS = _digest_sets()
_variants = st.tuples(st.sampled_from(_PATHS), st.sampled_from(range(len(_DIGESTS))))
_peeks = st.lists(st.tuples(st.sampled_from(("new", "merge", "resurrect", "below")),
                            _variants, st.integers(0, 7)), max_size=4)


def _table7(search, top: int):
    """The Table 7 answer as an ordered item list (``AnalysisError`` if none)."""
    try:
        return list(search.identify_unknown(top=top).items())
    except AnalysisError:
        return AnalysisError


class Table7Machine(RuleBasedStateMachine):
    """Commits, open-group peeks and ``top`` changes in any order.

    After every step the live Table 7 equals a fresh search and brute force
    over the same records, or all three raise.  The live and fresh searches
    use the index from four instances.
    """

    def __init__(self) -> None:
        super().__init__()
        self.live = LiveAnalysis({})
        self.committed: list[ProcessRecord] = []
        self.overlay: list[ProcessRecord] = []   # the peek minus resurrected keys
        self.top = 10
        self.high = 1000    # fresh keys count up ...
        self.low = 999      # ... and keys below every earlier one count down

    def _record(self, variant, pid: int) -> ProcessRecord:
        path, digests = variant
        return ProcessRecord(jobid="1", stepid="0", pid=pid, hash=f"{pid:08x}", host="n0",
                             time=pid, uid=1000, executable=path, category="user",
                             **_DIGESTS[digests])

    def _fresh_pid(self) -> int:
        self.high += 1
        return self.high

    @rule(variants=st.lists(_variants, max_size=3), close=st.booleans())
    def commit(self, variants, close):
        batch = [self._record(variant, self._fresh_pid()) for variant in variants]
        if close:     # the open groups finalize with this delta
            batch += self.overlay
        self.live.commit(batch)
        self.committed += batch
        if close:
            self.overlay = []
            self.live.refresh_open([])

    @rule(peeks=_peeks)
    def refresh_open(self, peeks):
        records = []
        for kind, variant, pick in peeks:
            if kind == "new" or not self.committed:
                records.append(self._record(variant, self._fresh_pid()))
                continue
            # counted from the newest: the instances most likely to move
            target = self.committed[-1 - pick % len(self.committed)]
            if kind == "resurrect":
                records.append(target)
                continue
            if kind == "below":
                self.low -= 1
                pid = self.low
            else:
                pid = self._fresh_pid()
            records.append(replace(target, pid=pid, hash=f"{pid:08x}", time=pid))
        self.live.refresh_open(records)
        committed = {record.key for record in self.committed}
        self.overlay = [record for record in records if record.key not in committed]

    @rule(top=st.sampled_from((0, 1, 3, 10)))
    def identify(self, top):
        self.top = top

    @invariant()
    def table7_equals_a_fresh_search_and_brute_force(self):
        records = _canonical(self.committed + self.overlay)
        with index_threshold(4):
            live = _table7(self.live, self.top)
            fresh = _table7(SimilaritySearch(records), self.top)
        brute = on_brute_force(_table7, SimilaritySearch(records), self.top)
        assert live == fresh == brute


Table7Machine.TestCase.settings = settings(max_examples=100, stateful_step_count=20,
                                           deadline=None)
TestTable7Machine = Table7Machine.TestCase


# --------------------------------------------------------------------------- #
# full campaigns (integration-level)
# --------------------------------------------------------------------------- #
class TestCampaignLiveEquivalence:
    PROFILES = DEFAULT_PROFILES[:4]

    def _check_against_snapshot(self, live, campaign, failures):
        live_t2 = live.table2_user_activity()
        live_t3 = live.table3_system_executables()
        live_t4 = live.table4_shared_object_variants()
        live_t8 = live.table8_python_interpreters()
        live_instances = [(i.key, i.label, i.process_count) for i in live.instances]
        try:
            live_t7 = live.identify_unknown(top=10)
        except AnalysisError:
            live_t7 = None
        records = campaign.deployment.snapshot()
        fresh = SimilaritySearch(records)
        try:
            fresh_t7 = fresh.identify_unknown(top=10)
        except AnalysisError:
            fresh_t7 = None
        if live_t2 != tables.user_activity_table(records, live.user_names):
            failures.append("table2")
        if live_t3 != tables.system_executable_table(records, live.user_names):
            failures.append("table3")
        if live_t4 != tables.shared_object_variant_table(records, "bash"):
            failures.append("table4")
        if live_t8 != tables.python_interpreter_table(records, live.user_names):
            failures.append("table8")
        if live_instances != [(i.key, i.label, i.process_count)
                              for i in fresh.instances]:
            failures.append("instances")
        if live_t7 != fresh_t7:
            failures.append("table7")

    @pytest.mark.parametrize("seed,loss_rate", [
        (17, 0.0),
        (23, 0.0002),
        (17, 0.01),
    ])
    def test_streaming_campaign_live_matches_rebuild_at_every_job(
            self, seed, loss_rate):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                                keep_raw_messages=False)
        campaign = DeploymentCampaign(config=config, profiles=self.PROFILES)
        live = campaign.live_analysis()
        failures: list[str] = []
        checks = [0]

        def on_job(jobs_run: int) -> None:
            self._check_against_snapshot(live, campaign, failures)
            checks[0] += 1

        campaign.on_job = on_job
        result = campaign.run()
        assert checks[0] == result.jobs_run > 0
        assert failures == []
        assert live.statistics()["records_committed"] > 0

    @pytest.mark.parametrize("seed,loss_rate", [(17, 0.01), (5, 0.0)])
    def test_raw_keeping_campaign_live_matches_rebuild_at_every_job(
            self, seed, loss_rate):
        """The paper's store keeps raw messages (the default); persisting
        them beside live consolidation leaves every live view unchanged."""
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate)
        assert config.keep_raw_messages
        campaign = DeploymentCampaign(config=config, profiles=self.PROFILES)
        live = campaign.live_analysis()
        failures: list[str] = []
        checks = [0]

        def on_job(jobs_run: int) -> None:
            self._check_against_snapshot(live, campaign, failures)
            checks[0] += 1

        campaign.on_job = on_job
        result = campaign.run()
        assert checks[0] == result.jobs_run > 0
        assert failures == []
        assert result.store.message_count() > 0

    def test_default_campaign_serves_live_views_and_deltas(self):
        """Regression guard: a default campaign used to refuse live analysis
        and record deltas; its only ingest path now serves both."""
        campaign = DeploymentCampaign(
            CampaignConfig(scale=0.0), profiles=self.PROFILES)
        live = campaign.live_analysis()
        result = campaign.run()
        delta = campaign.deployment.snapshot_delta()
        assert len(delta.new_records) + len(delta.open_records) == len(result.records)
        assert activity_totals(live.table2_user_activity()).total_processes \
            == len(result.records) > 0
