"""Property tests pinning live-vs-rebuild equivalence.

The contract of :mod:`repro.analysis.live` is byte-identical equality with a
fresh rebuild: at *every* snapshot, every table row (including tie order) and
every similarity ranking produced by the incrementally maintained
:class:`LiveAnalysis` must equal what the batch tables
(``tests/oracles/tables.py``) and a fresh
:class:`~repro.analysis.similarity.SimilaritySearch` compute over the same
record set.  These tests stream synthetic record sequences (delivered out of
canonical order, with open-group overlays) and full campaigns (seeds x loss
rates, batch and streaming ingest) and compare at each step.  Table 7 is
answered from memory while its inputs hold, so a work-count test pins that
an unchanged pool costs no comparison, and a hypothesis state machine checks
the memoised answer after every step of random commits, peeks and ``top``
changes.  Table 7 answers are also pinned to the all-pairs reference
(``oracles/search.py``), which compares every pair the gate prunes.  A
count test pins that an idle refresh of a finished deployment issues no
SQL statement, folds no record and builds none.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.ingest.incremental as incremental
from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilaritySearch
from repro.analysis.simindex import DigestIndex
from repro.analysis.stats import TableRollup
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.ingest.incremental import ProcessDelta
from repro.util.errors import AnalysisError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles import tables
from oracles.compare import malformed
from oracles.consolidate import raw_messages
from oracles.search import reference_identify, reference_query

_HASHER = FuzzyHasher()


def _canonical(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Snapshot order: the canonical process-key sort every rebuild sees."""
    return sorted(records, key=lambda r: (r.jobid, r.stepid, r.pid, r.hash,
                                          r.host, r.time))


def _assert_views_equal(live: LiveAnalysis, records: list[ProcessRecord],
                        user_names: dict[int, str]) -> None:
    """Every live view equals a fresh rebuild over ``records`` -- byte for byte.

    Table 7 also equals the all-pairs reference, which compares every pair.
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
    try:
        expected = fresh.identify_unknown(top=10)
    except AnalysisError:
        expected = None
        with pytest.raises(AnalysisError):
            live.identify_unknown(top=10)
    if expected is not None:
        assert live.identify_unknown(top=10) == expected
        assert reference_identify(fresh.instances, top=10) == expected
    for baseline in fresh.instances[:3]:
        assert live.query(baseline) == fresh.query(baseline) == \
            reference_query(baseline, fresh.labelled_instances())


# --------------------------------------------------------------------------- #
# synthetic record streams (unit-level, fine-grained control)
# --------------------------------------------------------------------------- #
def _user_hashes(content: str, environment: str) -> dict[str, str]:
    """The six Table 7 digests of a user executable's content in an environment."""
    return dict(
        modules_h=_HASHER.hash((environment + " modules " * 30).encode()),
        compilers_h=_HASHER.hash((environment + " compilers " * 30).encode()),
        objects_h=_HASHER.hash((environment + " objects " * 30).encode()),
        file_h=_HASHER.hash((content + " file").encode()),
        strings_h=_HASHER.hash((content + " strings").encode()),
        symbols_h=_HASHER.hash((content + " symbols").encode()),
    )


def _damaged(hashes: dict[str, str]) -> dict[str, str]:
    """``hashes`` with each digest in a different one of its damaged forms:
    a truncated datagram's, say, which no comparison can parse."""
    return {name: malformed(digest)[n] for n, (name, digest) in enumerate(hashes.items())}


def _record(pid: int, *, category: str, executable: str, jobid: str,
            uid: int = 1000, content: str = "", environment: str = "env",
            script: str = "") -> ProcessRecord:
    hashes = {}
    if category == "user":
        hashes = _user_hashes(content, environment)
        if pid % 5 == 2:      # every fifth user executable's digests arrive damaged
            hashes = _damaged(hashes)
    elif category == "system":
        hashes = dict(objects_h=_HASHER.hash((environment + " objects " * 30).encode()),
                      objects=f"/lib64/libc.so.6\n/lib64/libtinfo.so.{5 + pid % 3}")
    elif category == "python":
        hashes = dict(script_h=_HASHER.hash(script.encode()) if script else "")
    return ProcessRecord(
        jobid=jobid, stepid="0", pid=pid, hash=f"{pid:032x}", host=f"n{pid % 3}",
        time=100 + pid, uid=uid, executable=executable, category=category,
        **hashes)


def _synthetic_stream(seed: int = 5, count: int = 48) -> list[ProcessRecord]:
    """A mixed-category stream with an UNKNOWN family, unique process keys,
    and some user records whose digests do not parse (``_record``)."""
    rng = random.Random(seed)
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
        # The first overlay instance is not in the search's instance list and
        # its digests do not parse: the gate passes none of its pairs, and it
        # scores 0 everywhere.
        assert stream[30].category == "user" and stream[30].pid % 5 == 2
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

    def test_a_commit_drops_its_keys_from_an_unchanged_peek(self):
        """A bound analysis that also commits by hand: the next pull hands
        back the very peek it overlaid, but a key just committed leaves the
        overlay, not counted twice."""
        stream = _synthetic_stream(seed=3)
        delta = ProcessDelta(new_records=(), open_records=tuple(stream[:4]), cursor=0)
        live = LiveAnalysis({}).bind(SimpleNamespace(snapshot_delta=lambda cursor: delta))
        _assert_views_equal(live, stream[:4], {})
        live.commit(stream[1:3])
        _assert_views_equal(live, stream[:4], {})
        assert live.statistics()["open_records"] == 2

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

    def test_growth_four_records_at_a_time_stays_equivalent(self):
        """Each commit grows the pool: every answer is gated afresh over it
        and stays identical to a rebuild and to the all-pairs reference."""
        stream = _synthetic_stream(seed=11, count=60)
        live = LiveAnalysis({})
        committed: list[ProcessRecord] = []
        probes = [live.index_stats().queries]
        for start in range(0, len(stream), 4):
            chunk = stream[start:start + 4]
            live.commit(chunk)
            committed.extend(chunk)
            _assert_views_equal(live, committed, {})
            probes.append(live.index_stats().queries)
        assert probes[-1] > probes[0], "no answer went through the gate"

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
        live = LiveAnalysis({})
        live.commit(stream[:30])
        live.refresh_open(stream[30:33])
        probes = [0]
        candidates = DigestIndex.candidates

        def counted(index, digest):
            probes[0] += 1
            return candidates(index, digest)

        monkeypatch.setattr(DigestIndex, "candidates", counted)

        def work():
            info = live.hasher.compare_cache_info()
            return info.hits, info.misses, probes[0]

        first = live.identify_unknown(top=10)
        assert probes[0] > 0, "the gate is not on the path"
        before = work()
        # An unchanged pool, an equal re-peek and a commit that only bumps a
        # process_count are all answered without a gate probe or LRU lookup.
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

    def test_an_instances_hashes_cannot_change_the_pool(self):
        """An instance handed out by ``instances`` is the search's own: a
        digest written through it would change the pool the Table 7 memo was
        built over.  Its ``hashes`` refuse every change."""
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


class TestIncrementalSearchGrowth:
    def test_a_search_grown_one_record_at_a_time_equals_a_batch_build(self):
        stream = [r for r in _synthetic_stream(seed=7) if r.category == "user"]
        batch = SimilaritySearch(stream)
        grown = SimilaritySearch([])
        for record in stream:
            grown.add_records([record])
        assert [i.key for i in grown.instances] == [i.key for i in batch.instances]
        for baseline in batch.instances:
            assert grown.query(baseline, candidates=grown.instances) == \
                batch.query(baseline, candidates=batch.instances)
        for column in ("FI_H", "MO_H"):
            assert grown.pairwise_average_matrix(column) == \
                batch.pairwise_average_matrix(column)
        assert grown.index_stats() == batch.index_stats()

    def test_add_records_after_a_query_is_seen_by_the_next(self):
        """Regression test for the staleness bug: the n-gram index used to be
        cached forever, so records added after the first indexed query were
        invisible to every later query.  No query state outlives its query."""
        stream = [r for r in _synthetic_stream(seed=13, count=60)
                  if r.category == "user"]
        half = len(stream) // 2
        search = SimilaritySearch(stream[:half])
        baseline = search.unknown_instances()[0]
        search.query(baseline)
        search.add_records(stream[half:])
        fresh = SimilaritySearch(stream)
        assert [(i.key, i.process_count) for i in search.instances] == \
            [(i.key, i.process_count) for i in fresh.instances]
        assert search.query(baseline) == fresh.query(baseline)
        assert search.identify_unknown(top=10) == fresh.identify_unknown(top=10) == \
            reference_identify(fresh.instances, top=10)


class _Feed:
    """A delta source that hands each queued delta over once, then idles on
    its peek (no new record, the same open tuple) until the next is queued."""

    def __init__(self) -> None:
        self.queued: ProcessDelta | None = None
        self.idle = ProcessDelta(new_records=(), open_records=(), cursor=0)

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        if self.queued is None:
            return self.idle
        delta, self.queued = self.queued, None
        self.idle = ProcessDelta(new_records=(), open_records=delta.open_records,
                                 cursor=delta.cursor)
        return delta


class TestLabelViews:
    def test_each_label_view_pulls_once_and_filters_the_pool(self):
        """``unknown_instances`` and ``labelled_instances`` each pull once,
        then answer the current pool filtered by label: what filtering
        ``instances`` gives, committed and overlaid instances alike."""
        stream = _synthetic_stream(seed=11)
        feed = _Feed()
        live = LiveAnalysis({}).bind(feed)
        slices = ((0, 20, 24), (20, 36, 39), (36, 48, 48))    # commit [start:stop], peek on
        for step, (start, stop, peek) in enumerate(slices):
            views = []
            for view in (live.unknown_instances, live.labelled_instances):
                feed.queued = ProcessDelta(new_records=tuple(stream[start:stop]),
                                           open_records=tuple(stream[stop:peek]),
                                           cursor=step + 1) if not views else None
                syncs = live.syncs
                views.append(view())
                assert live.syncs == syncs + 1
            pool = live.instances
            unknown, labelled = views
            assert unknown == [i for i in pool if i.label == UNKNOWN_LABEL] and unknown
            assert labelled == [i for i in pool if i.label != UNKNOWN_LABEL] and labelled
        assert live.statistics()["records_committed"] == len(stream)


# --------------------------------------------------------------------------- #
# Table 7 from memory, over random interleavings (hypothesis)
# --------------------------------------------------------------------------- #
#: Three UNKNOWN paths and three labelled ones.  Moving a first key reorders
#: the UNKNOWN baselines, and a digest set under two labelled paths ties
#: exactly, so it reorders the tied rows too.
_PATHS = ("/proj/a/a.out", "/proj/b/run", "/proj/c/tool", "/proj/a/icon",
          "/proj/b/icon_copy", "/proj/c/lmp")


def _digest_sets() -> tuple[dict[str, str], ...]:
    """Seven digest sets: three contents (two of them near copies) x two
    environments, and the first of them damaged past parsing."""
    rng = random.Random(21)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    near = [rng.choice(words) for _ in range(120)]
    contents = (near, near[:100] + [rng.choice(words) for _ in range(20)],
                [rng.choice(words) for _ in range(120)])
    sets = tuple(_user_hashes(" ".join(content), environment)
                 for content in contents for environment in ("env-0", "env-1"))
    return (*sets, _damaged(sets[0]))


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

    After every step the live Table 7 equals a fresh search and the
    all-pairs reference over the same records, or there is no UNKNOWN
    instance: the searches raise and the reference is empty.
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
    def table7_equals_a_fresh_search_and_the_reference(self):
        records = _canonical(self.committed + self.overlay)
        live = _table7(self.live, self.top)
        fresh = _table7(SimilaritySearch(records), self.top)
        reference = reference_identify(SimilaritySearch(records).instances, top=self.top)
        assert live == fresh == (list(reference.items()) or AnalysisError)


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
        assert len(raw_messages(result.store)) > 0

    def test_default_campaign_serves_live_views_and_deltas(self):
        """Regression guard: a default campaign used to refuse live analysis
        and record deltas; its only ingest path now serves both."""
        campaign = DeploymentCampaign(
            CampaignConfig(scale=0.0), profiles=self.PROFILES)
        live = campaign.live_analysis()
        result = campaign.run()
        delta = campaign.deployment.snapshot_delta()
        assert len(delta.new_records) + len(delta.open_records) == len(result.records)
        assert tables.activity_totals(live.table2_user_activity()).total_processes \
            == len(result.records) > 0


class TestIdleRefresh:
    def test_an_idle_refresh_issues_no_statement_and_rebuilds_nothing(self, monkeypatch):
        """A dashboard polling a finished ``:memory:`` deployment: after one
        refresh, each of its views pulls a delta with nothing new, and 30
        more refreshes run no SQL statement, fold no record into a rollup,
        build no record and serve every Table 7 answer from memory."""
        config = CampaignConfig(scale=0.0, seed=2025, loss_rate=0.0,
                                keep_raw_messages=False)
        result = DeploymentCampaign(config=config).run()
        assert result.store.path == ":memory:"
        live = result.deployment.live_analysis()

        def refresh():
            views = (live.table2_user_activity(), live.table3_system_executables(),
                     live.table4_shared_object_variants(),
                     live.table8_python_interpreters(), live.unknown_instances())
            return views, live.identify_unknown(top=10)

        first = refresh()
        assert first[0][-1], "the campaign has no UNKNOWN instance"
        statements: list[str] = []
        folds: list[ProcessRecord] = []
        builds: list[tuple] = []
        calls: list[str] = []
        fold, build = TableRollup.fold, incremental.build_process_record
        result.store.connection.set_trace_callback(statements.append)
        monkeypatch.setattr(TableRollup, "fold", lambda rollup, record:
                            folds.append(record) or fold(rollup, record))
        monkeypatch.setattr(incremental, "build_process_record", lambda key, rows, values:
                            builds.append(key) or build(key, rows, values))
        # An idle pull neither peeks nor commits: the consolidator hands back
        # its last delta, and the analysis returns at once.
        for owner, name in ((incremental.IncrementalConsolidator, "_peek_open"),
                            (LiveAnalysis, "commit"), (LiveAnalysis, "refresh_open")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
        reused, syncs = live.identify_reused, live.syncs
        for _ in range(30):
            assert refresh() == first
        assert (statements, folds, builds, calls) == ([], [], [], [])
        assert live.identify_reused == reused + 30
        assert live.syncs == syncs + 30 * 6
