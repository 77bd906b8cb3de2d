"""Property tests pinning live-vs-rebuild equivalence.

The contract of :mod:`repro.analysis.live` is byte-identical equality with a
fresh rebuild: at *every* snapshot, every table row (including tie order) and
every similarity ranking produced by the incrementally maintained
:class:`LiveAnalysis` must equal what a fresh
:class:`~repro.core.pipeline.AnalysisPipeline` /
:class:`~repro.analysis.similarity.SimilaritySearch` computes over the same
record set.  These tests stream synthetic record sequences (delivered out of
canonical order, with open-group overlays, across the index threshold) and
full campaigns (seeds x loss rates, batch and streaming ingest) and compare
at each step.
"""

from __future__ import annotations

import pytest

from repro.analysis.live import LiveAnalysis
from repro.analysis.similarity import SimilaritySearch
from repro.analysis.simindex import SimilarityIndex
from repro.core import AnalysisPipeline
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher, fuzzy_hash_text
from repro.util.errors import AnalysisError, CollectionError
from repro.util.rng import SeededRNG
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES


def _canonical(records: list[ProcessRecord]) -> list[ProcessRecord]:
    """Snapshot order: the canonical process-key sort every rebuild sees."""
    return sorted(records, key=lambda r: (r.jobid, r.stepid, r.pid, r.hash,
                                          r.host, r.time))


def _assert_views_equal(live: LiveAnalysis, records: list[ProcessRecord],
                        user_names: dict[int, str], *,
                        index_threshold: int | None = None) -> None:
    """Every live view equals a fresh rebuild over ``records`` -- byte for byte."""
    reference = _canonical(records)
    pipeline = AnalysisPipeline(reference, user_names)
    assert live.table2_user_activity() == pipeline.table2_user_activity()
    assert live.table2_totals() == pipeline.table2_totals()
    assert live.table3_system_executables() == pipeline.table3_system_executables()
    assert live.table3_system_executables(top=None) == \
        pipeline.table3_system_executables(top=None)
    for name in ("bash", "tool0", "a.out", "absent"):
        assert live.table4_shared_object_variants(name) == \
            pipeline.table4_shared_object_variants(name)
    assert live.table8_python_interpreters() == pipeline.table8_python_interpreters()

    kwargs = {} if index_threshold is None else {"index_threshold": index_threshold}
    fresh = SimilaritySearch(reference, **kwargs)
    assert [(i.key, i.label, i.process_count) for i in live.instances] == \
        [(i.key, i.label, i.process_count) for i in fresh.instances]
    brute = SimilaritySearch(reference, use_index=False)
    try:
        expected = fresh.identify_unknown(top=10)
    except AnalysisError:
        expected = None
        with pytest.raises(AnalysisError):
            live.identify_unknown(top=10)
    if expected is not None:
        assert live.identify_unknown(top=10) == expected
        assert brute.identify_unknown(top=10) == expected  # and both == brute force
    for baseline in fresh.instances[:3]:
        assert live.query(baseline) == fresh.query(baseline)


# --------------------------------------------------------------------------- #
# synthetic record streams (unit-level, fine-grained control)
# --------------------------------------------------------------------------- #
def _record(pid: int, *, category: str, executable: str, jobid: str,
            uid: int = 1000, content: str = "", environment: str = "env",
            script: str = "") -> ProcessRecord:
    hashes = {}
    if category == "user":
        hashes = dict(
            modules_h=fuzzy_hash_text(environment + " modules " * 30),
            compilers_h=fuzzy_hash_text(environment + " compilers " * 30),
            objects_h=fuzzy_hash_text(environment + " objects " * 30),
            file_h=fuzzy_hash_text(content + " file"),
            strings_h=fuzzy_hash_text(content + " strings"),
            symbols_h=fuzzy_hash_text(content + " symbols"),
        )
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
    return rng.shuffle(records)


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

    def test_index_growth_across_threshold_stays_equivalent(self):
        """add() growth crossing index_threshold: live answers stay identical
        (brute force below the threshold, incrementally grown index above)."""
        stream = _synthetic_stream(seed=11, count=60)
        threshold = 6
        live = LiveAnalysis({}, index_threshold=threshold)
        committed: list[ProcessRecord] = []
        crossed = False
        for start in range(0, len(stream), 4):
            chunk = stream[start:start + 4]
            live.commit(chunk)
            committed.extend(chunk)
            _assert_views_equal(live, committed, {}, index_threshold=threshold)
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

    def test_observe_diffs_by_key_and_rejects_shrinking_streams(self):
        stream = _synthetic_stream()
        live = LiveAnalysis({})
        assert live.observe(stream[:10]) == 10
        assert live.observe(stream[:16]) == 6  # only the new keys commit
        _assert_views_equal(live, stream[:16], {})
        with pytest.raises(AnalysisError):
            live.observe(stream[2:10])  # previously committed records missing

    def test_warm_hasher_is_shared_across_snapshots(self):
        stream = [record for record in _synthetic_stream() if record.category == "user"]
        hasher = FuzzyHasher()
        live = LiveAnalysis({}, hasher=hasher)
        live.commit(stream)
        live.identify_unknown(top=10)
        after_first = hasher.compare_cache_info()
        live.identify_unknown(top=10)
        after_second = hasher.compare_cache_info()
        # the second snapshot's alignments are all compare-LRU hits
        assert after_second.misses == after_first.misses
        assert after_second.hits > after_first.hits


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

    def test_add_records_refreshes_a_built_index(self):
        """Regression test for the staleness bug: the n-gram index used to be
        cached forever, so records added after the first indexed query were
        invisible to every later query."""
        stream = [r for r in _synthetic_stream(seed=13, count=60)
                  if r.category == "user"]
        half = len(stream) // 2
        search = SimilaritySearch(stream[:half], index_threshold=4)
        baseline = search.unknown_instances()[0]
        assert search.indexed
        search.query(baseline)  # builds and uses the index
        search.add_records(stream[half:])
        fresh = SimilaritySearch(stream, index_threshold=4)
        assert [(i.key, i.process_count) for i in search.instances] == \
            [(i.key, i.process_count) for i in fresh.instances]
        assert search.query(baseline) == fresh.query(baseline)
        assert search.identify_unknown(top=10) == fresh.identify_unknown(top=10)
        assert search.identify_unknown(top=10) == \
            SimilaritySearch(stream, use_index=False).identify_unknown(top=10)


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
        records = campaign.snapshot()
        pipeline = AnalysisPipeline(records, live.user_names)
        fresh = SimilaritySearch(records)
        try:
            fresh_t7 = fresh.identify_unknown(top=10)
        except AnalysisError:
            fresh_t7 = None
        if live_t2 != pipeline.table2_user_activity():
            failures.append("table2")
        if live_t3 != pipeline.table3_system_executables():
            failures.append("table3")
        if live_t4 != pipeline.table4_shared_object_variants():
            failures.append("table4")
        if live_t8 != pipeline.table8_python_interpreters():
            failures.append("table8")
        if live_instances != [(i.key, i.label, i.process_count)
                              for i in fresh.instances]:
            failures.append("instances")
        if live_t7 != fresh_t7:
            failures.append("table7")

    @pytest.mark.parametrize("seed,loss_rate,shards", [
        (17, 0.0, 1),
        (23, 0.0002, 1),
        # worker-process shards: live views pull the same delta stream, now
        # fed by merge-at-snapshot from OS worker processes
        (17, 0.01, 2),
    ])
    def test_streaming_campaign_live_matches_rebuild_at_every_job(
            self, seed, loss_rate, shards):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                                ingest_mode="streaming", ingest_shards=shards,
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
    def test_batch_campaign_observe_matches_rebuild_at_every_job(
            self, seed, loss_rate):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate)
        campaign = DeploymentCampaign(config=config, profiles=self.PROFILES)
        campaign.prepare()
        user_names = {user.uid: user.username
                      for user in campaign.cluster.users.all()}
        live = LiveAnalysis(user_names)
        failures: list[str] = []
        checks = [0]

        def on_job(jobs_run: int) -> None:
            records = campaign.snapshot()
            live.observe(records)
            try:
                _assert_views_equal(live, records, user_names)
            except AssertionError as error:
                failures.append(str(error)[:200])
            checks[0] += 1

        campaign.on_job = on_job
        result = campaign.run()
        assert checks[0] == result.jobs_run > 0
        assert failures == []

    def test_live_analysis_requires_streaming_campaign(self):
        campaign = DeploymentCampaign(
            CampaignConfig(scale=0.0), profiles=self.PROFILES)
        with pytest.raises(CollectionError):
            campaign.live_analysis()
        with pytest.raises(CollectionError):
            campaign.snapshot_delta()
