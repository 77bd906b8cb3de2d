"""Tests for the gold rollups (``TieredStore``) over the ``processes`` table.

The load-bearing property is *byte identity*: every gold answer must equal
the corresponding batch table (``tests/oracles/tables.py``) recomputed from the
key-sorted ``processes`` rows -- under any batching and order, after a
refold, after reopening an on-disk store, for full campaigns, under every
degradation preset and under store faults.  The rollups are an
optimisation, never a new answer.  The write-by-write version of the same
property is the state machine in ``test_store_machine.py``.
"""

import functools
import random
import sqlite3
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stats
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore, build_tiered_store
from repro.hpcsim.faults import FaultPlan, StoreFaultInjector, StoreFaultProfile
from repro.util.counters import assert_registered_counters
from repro.util.errors import StoreError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

from oracles import tables
from oracles.conservation import preset_plans, replay
from oracles.consolidate import raw_messages

_USERS = {1000 + i: f"user_{i}" for i in range(6)}
_OBJECT_SETS = (
    "/lib64/libc.so.6\n/lib64/libtinfo.so.5",
    "/lib64/libc.so.6\n/lib64/libtinfo.so.6\n/lib64/libm.so.6",
    "/lib64/libc.so.6",
    "",
)
PROFILES = DEFAULT_PROFILES[:3]


def _record(index: int, rng: random.Random) -> ProcessRecord:
    category = rng.choice(("system", "python", "user"))
    executable = {
        "system": rng.choice(("/usr/bin/bash", "/usr/bin/grep", "/usr/bin/awk")),
        "python": "/usr/bin/python3",
        "user": rng.choice(("/home/p/app", "/home/p/model")),
    }[category]
    return ProcessRecord(
        jobid=f"j{rng.randrange(20)}", stepid="0", pid=100 + index,
        hash=f"h{rng.randrange(9)}", host=f"n{index % 4}", time=1000 + index,
        uid=rng.choice(list(_USERS)), executable=executable, category=category,
        objects=rng.choice(_OBJECT_SETS), objects_h=f"oh{rng.randrange(4)}",
        script_h="sh1" if category == "python" else "",
        modules="PrgEnv-cray", compilers="Cray clang 14;",
        maps="55a000-55afff r-xp /usr/bin/bash",
        file_metadata="rwxr-xr-x root root 4096",
        python_packages="numpy,scipy" if category == "python" else "")


def _records(count: int, seed: int) -> list[ProcessRecord]:
    rng = random.Random(seed)
    return [_record(index, rng) for index in range(count)]


def _sorted(records) -> list[ProcessRecord]:
    return sorted(records, key=attrgetter("key"))


def _assert_tables_match(tiered: TieredStore, records, user_names) -> None:
    """Every gold answer byte-identical to the recompute reference."""
    reference = _sorted(records)
    assert tiered.user_activity() == \
        tables.user_activity_table(reference, user_names)
    assert tiered.system_executables() == \
        tables.system_executable_table(reference, user_names)
    assert tiered.system_executables(top=None) == \
        tables.system_executable_table(reference, user_names, top=None)
    assert tiered.shared_object_variants("bash") == \
        tables.shared_object_variant_table(reference, "bash")
    assert tiered.python_interpreters() == \
        tables.python_interpreter_table(reference, user_names)


def _assert_gold_is_processes(store: MessageStore, user_names) -> None:
    """Gold reflects exactly the ``processes`` rows, and answers for them."""
    records = store.load_processes()
    assert store.tiered.statistics()["silver_rows"] == len(records)
    _assert_tables_match(store.tiered, records, user_names)


class TestGold:
    """fold == rebuild == recompute, whatever the batching and order."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_shuffled_batches_match_recompute(self, seed):
        records = _records(120, seed=seed)
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        tiered = TieredStore(_USERS)
        for start in range(0, len(shuffled), 17):
            tiered.fold(shuffled[start:start + 17])
        _assert_tables_match(tiered, records, _USERS)
        assert tiered.statistics()["silver_rows"] == len(records)

    def test_mid_ingest_snapshots_match_recompute(self):
        """The rollups are right at *every* prefix, not just at the end."""
        records = _records(90, seed=5)
        tiered = TieredStore(_USERS)
        for start in range(0, len(records), 30):
            tiered.fold(records[start:start + 30])
            _assert_tables_match(tiered, records[:start + 30], _USERS)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16), st.lists(st.integers(1, 40), max_size=6))
    def test_any_batching_of_a_rebuild_is_the_same_gold(self, seed, cuts):
        records = _records(60, seed=seed)
        random.Random(seed).shuffle(records)
        folded, rebuilt = TieredStore(_USERS), TieredStore(_USERS)
        low = 0
        for high in sorted(cuts) + [len(records)]:
            folded.fold(records[low:high])
            low = max(low, high)
        rebuilt.rebuild(records)
        for tiered in (folded, rebuilt):
            _assert_tables_match(tiered, records, _USERS)
            assert tiered.statistics()["silver_rows"] == len(records)

    def test_rebuild_replaces_what_was_folded(self):
        tiered = TieredStore(_USERS)
        tiered.fold(_records(40, seed=2))
        survivors = _records(25, seed=3)
        tiered.rebuild(survivors)
        _assert_tables_match(tiered, survivors, _USERS)
        assert tiered.statistics() == {
            "silver_rows": 25, "rollup_rebuilds": 1,
            "rollup_records_applied": 40, "rollup_syncs": 1}

    def test_each_fold_is_one_sync_of_its_records(self):
        tiered = TieredStore(_USERS)
        records = _records(15, seed=6)
        for batch in (records[:5], records[5:12], records[12:]):
            tiered.fold(batch)
        assert tiered.statistics() == {
            "silver_rows": 15, "rollup_rebuilds": 0,
            "rollup_records_applied": 15, "rollup_syncs": 3}

    def test_every_nonempty_refold_is_a_rebuild(self):
        tiered = TieredStore(_USERS)
        for count, seed in ((12, 7), (8, 8), (0, 9)):
            tiered.rebuild(_records(count, seed=seed))
        assert tiered.statistics() == {
            "silver_rows": 0, "rollup_rebuilds": 2,
            "rollup_records_applied": 0, "rollup_syncs": 0}

    def test_refolding_an_empty_table_is_not_a_rebuild(self):
        tiered = TieredStore(_USERS)
        tiered.rebuild([])
        assert tiered.statistics()["rollup_rebuilds"] == 0
        assert tiered.user_activity() == []

    def test_statistics_keys_are_all_registered(self):
        tiered = TieredStore(_USERS)
        tiered.fold(_records(10, seed=14))
        assert_registered_counters(tiered.statistics(),
                                   context="TieredStore.statistics()")

    def test_factory_accepts_the_old_backend_names_only(self):
        for name in ("sqlite", "memory"):
            tiered = build_tiered_store(name, user_names=_USERS)
            assert type(tiered) is TieredStore and tiered.user_names == _USERS
        with pytest.raises(StoreError, match="parquet"):
            build_tiered_store("parquet")


class TestGoldIsOAnswer:
    """The rollups' point: a gold view costs O(answer), not O(records)."""

    def test_a_view_builds_one_row_per_group_at_any_record_count(self):
        """200 or 2,000 records of the same groups, folded the way a
        deployment writes them: each view walks its groups once, one row
        per group, and the groups are the same."""
        by_first_key = stats._by_first_key
        walked: list[int] = []

        def counting(*args):
            groups = by_first_key(*args)
            walked.append(len(groups))
            return groups

        built = {}
        for count in (200, 2_000):
            store = MessageStore()
            store.attach_tiered(TieredStore(_USERS))
            store.insert_processes_if_absent(_records(count, seed=11))
            assert store.tiered.statistics()["rollup_rebuilds"] == 0
            walked.clear()
            with mock.patch.object(stats, "_by_first_key", counting):
                views = (store.tiered.user_activity(),
                         store.tiered.system_executables(top=None),
                         store.tiered.shared_object_variants("bash"),
                         store.tiered.python_interpreters())
            assert walked == [len(rows) for rows in views]
            users, executables, variants, interpreters = views
            built[count] = (sorted(row.user for row in users),
                            sorted(row.executable for row in executables),
                            sorted(row.objects for row in variants),
                            sorted(row.interpreter for row in interpreters))
        assert built[200] == built[2_000]


class TestHandOff:
    """``MessageStore`` hands a batch over only when the table gained all of
    it; every other write refolds gold from ``processes``."""

    @staticmethod
    def _record(pid: int, executable: str = "/usr/bin/bash") -> ProcessRecord:
        return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="h",
                             host="n1", time=100, uid=1000,
                             executable=executable, category="system")

    @pytest.mark.parametrize("pids, handed", [
        ([3, 4], True),
        ([2, 3], False),     # 2 is already there
        ([3, 3], False),     # a key twice
        ([], None),          # nothing written
    ])
    def test_which_writes_are_folded_and_which_refold(self, pids, handed):
        store = MessageStore()
        store.attach_tiered(TieredStore(_USERS))
        store.insert_processes_if_absent([self._record(1), self._record(2)])
        before = store.tiered.statistics()
        store.insert_processes_if_absent([self._record(pid, f"/usr/bin/x{pid}")
                                          for pid in pids])
        after = store.tiered.statistics()
        assert after["rollup_syncs"] - before["rollup_syncs"] == (handed is True)
        assert after["rollup_rebuilds"] - before["rollup_rebuilds"] == (handed is False)
        _assert_gold_is_processes(store, _USERS)

    def test_reopened_store_rebuilds_gold_from_the_on_disk_processes(self, tmp_path):
        path = str(tmp_path / "siren.db")
        records = _records(80, seed=20)
        with MessageStore(path) as store:
            store.attach_tiered(TieredStore(_USERS))
            store.insert_processes_if_absent(records[:50])
            store.insert_processes_if_absent(records[40:])   # 40-49 ignored: a refold
            expected = store.tiered.user_activity()
        with MessageStore(path) as reopened:
            reopened.attach_tiered(TieredStore(_USERS))
            assert reopened.tiered.statistics()["rollup_rebuilds"] == 1
            assert reopened.tiered.user_activity() == expected
            _assert_tables_match(reopened.tiered, records, _USERS)
            _assert_gold_is_processes(reopened, _USERS)


@functools.cache
def _stream(seed: int, loss_rate: float) -> tuple[tuple[bytes, ...], dict[int, str]]:
    """The datagrams a scale-0.0 campaign's ingest got, in arrival order."""
    config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                            keep_raw_messages=False)
    campaign = DeploymentCampaign(config=config, profiles=PROFILES)
    campaign.prepare()
    stream: list[bytes] = []
    campaign.channel.subscribe(stream.append)
    result = campaign.run()
    return tuple(stream), result.user_names


def _replay(stream, user_names, store: MessageStore,
            plan: FaultPlan | None = None) -> None:
    """``stream`` into ``store`` with gold attached, through ``plan``'s
    channel faults when given."""
    store.attach_tiered(TieredStore(user_names))
    replay(stream, plan or FaultPlan(), store)


class TestGoldUnderDegradation:
    """Every preset, over lossless and lossy streams of two seeds: gold ==
    recompute, and -- no preset resurrecting a key here -- every record
    crossed into gold in the batch that wrote it, without one refold."""

    @pytest.mark.parametrize("preset", list(preset_plans()))
    @pytest.mark.parametrize("loss_rate", [0.0, 0.03])
    @pytest.mark.parametrize("seed", [7, 19, 31])
    def test_every_preset_keeps_gold_equal_to_the_recompute(self, seed, loss_rate,
                                                            preset):
        stream, user_names = _stream(seed, loss_rate)
        store = MessageStore()
        _replay(stream, user_names, store, preset_plans(seed=seed)[preset])
        _assert_gold_is_processes(store, user_names)
        statistics = store.tiered.statistics()
        assert statistics["rollup_rebuilds"] == 0
        assert statistics["rollup_records_applied"] == store.process_count() > 0

    @pytest.mark.parametrize("error_rate, burst", [(0.1, 1), (0.1, 2),
                                                   (0.2, 1), (0.2, 2)])
    @mock.patch("repro.db.store.RETRY_ATTEMPTS", 8)
    def test_retried_store_faults_keep_gold_equal_to_the_recompute(
            self, error_rate, burst):
        stream, user_names = _stream(7, 0.0)
        store = MessageStore()
        store._sleep = lambda _seconds: None
        plan = FaultPlan(seed=3, store=StoreFaultProfile(error_rate=error_rate,
                                                         error_burst=burst))
        injector = StoreFaultInjector(plan).install(store)
        _replay(stream, user_names, store)
        assert injector.transient_raised > 0 and store.write_retries > 0
        _assert_gold_is_processes(store, user_names)

    @pytest.mark.parametrize("disk_full_after", [0, 5, 20])
    def test_a_write_that_raises_folds_nothing(self, disk_full_after):
        """The disk fills up mid-stream: the failing flush writes no row and
        folds none, so gold still answers for exactly what was committed."""
        stream, user_names = _stream(7, 0.0)
        store = MessageStore()
        plan = FaultPlan(seed=3, store=StoreFaultProfile(disk_full_after=disk_full_after))
        StoreFaultInjector(plan).install(store)
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            _replay(stream, user_names, store)
        assert (store.process_count() > 0) == (disk_full_after > 0)
        _assert_gold_is_processes(store, user_names)


class TestCampaignProperty:
    """Full campaigns with ``rollups=True``: gold matches the recompute."""

    def _run(self, *, seed=17, loss_rate=0.01, **overrides):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                                rollups=True, **overrides)
        return DeploymentCampaign(config=config, profiles=PROFILES).run()

    def _assert_result_matches(self, result):
        tiered = result.tiered
        assert tiered is not None
        assert tiered.statistics()["silver_rows"] == len(result.records)
        assert tiered.statistics()["rollup_rebuilds"] == 0
        _assert_tables_match(tiered, result.records, result.user_names)
        _assert_gold_is_processes(result.store, result.user_names)
        assert_registered_counters(result.statistics(),
                                   context="CampaignResult.statistics()")

    def test_streaming_campaign_rollups_match(self):
        self._assert_result_matches(self._run(keep_raw_messages=False))

    @pytest.mark.parametrize("loss_rate", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("seed", [17, 23, 99])
    def test_raw_keeping_campaign_rollups_match(self, seed, loss_rate):
        """Raw messages persisted beside the records (the default) feed no
        gold: the rollups still match a recompute from the records."""
        result = self._run(seed=seed, loss_rate=loss_rate)
        assert len(raw_messages(result.store)) > 0
        self._assert_result_matches(result)

    def test_on_disk_campaign_gold_is_rebuilt_on_reopen(self, tmp_path):
        path = str(tmp_path / "siren.db")
        result = self._run(store_path=path, keep_raw_messages=False)
        self._assert_result_matches(result)
        result.store.close()
        with MessageStore(path) as reopened:
            reopened.attach_tiered(TieredStore(result.user_names))
            _assert_tables_match(reopened.tiered, result.records, result.user_names)

    def test_mid_run_rollups_match_snapshot(self):
        """Gold answers are right mid-campaign, at a live snapshot point."""
        config = CampaignConfig(scale=0.0, seed=4, loss_rate=0.0002,
                                keep_raw_messages=False, rollups=True)
        campaign = DeploymentCampaign(config=config, profiles=PROFILES)
        checked = []

        def on_job(jobs_run: int) -> None:
            if jobs_run == 5:
                snapshot = campaign.deployment.snapshot()
                user_names = {user.uid: user.username
                              for user in campaign.cluster.users.all()}
                _assert_tables_match(campaign.tiered, snapshot, user_names)
                checked.append(len(snapshot))

        campaign.on_job = on_job
        result = campaign.run()
        (snapshot_size,) = checked
        assert 0 < snapshot_size < len(result.records)
        self._assert_result_matches(result)
