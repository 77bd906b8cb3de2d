"""Tests for the tiered record store (bronze/silver/gold).

The load-bearing property is *byte identity*: every gold rollup answer must
equal the corresponding :mod:`repro.analysis.stats` table recomputed from
the key-sorted record list -- across backends, ingest orders, re-delivery,
superseding versions, compaction, retention, reopen, and full campaigns in
every ingest mode.  The rollups are an optimisation, never a new answer.
"""

import dataclasses
import json
import os
import random
import sqlite3
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.tiered as tiered_module
from repro.analysis import stats
from repro.db.store import PROCESS_FIELDS, MessageStore, ProcessRecord
from repro.db.tiered import (DEDUP_FIELDS, DEFAULT_SHARDS, DIGEST_SCHEME,
                             MemoryBackend, SqliteBackend, TieredStore,
                             build_tiered_store, record_digest, record_key,
                             shard_of_key)
from repro.hashing.fnv import fnv1a_64
from repro.util.counters import assert_registered_counters
from repro.util.errors import StoreError
from repro.workload import CampaignConfig, DeploymentCampaign
from repro.workload.profiles import DEFAULT_PROFILES

_USERS = {1000 + i: f"user_{i}" for i in range(6)}
_OBJECT_SETS = (
    "/lib64/libc.so.6\n/lib64/libtinfo.so.5",
    "/lib64/libc.so.6\n/lib64/libtinfo.so.6\n/lib64/libm.so.6",
    "/lib64/libc.so.6",
    "",
)


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
    return sorted(records, key=lambda r: (r.jobid, r.stepid, r.pid, r.hash,
                                          r.host, r.time))


def _assert_tables_match(tiered: TieredStore, records, user_names,
                         campaign=None) -> None:
    """Every gold answer byte-identical to the recompute reference."""
    reference = _sorted(records)
    assert tiered.user_activity(campaign) == \
        stats.user_activity_table(reference, user_names)
    assert tiered.system_executables(campaign) == \
        stats.system_executable_table(reference, user_names)
    assert tiered.shared_object_variants("bash", campaign) == \
        stats.shared_object_variant_table(reference, "bash")
    assert tiered.python_interpreters(campaign) == \
        stats.python_interpreter_table(reference, user_names)


BACKENDS = [pytest.param(MemoryBackend, id="memory"),
            pytest.param(SqliteBackend, id="sqlite")]


class TestContentAddressing:
    def test_record_key_and_shard_are_content_functions(self):
        a, b = _records(2, seed=1)[0], _records(2, seed=1)[0]
        assert record_key(a) == record_key(b)
        assert record_digest(a) == record_digest(b)
        assert shard_of_key(record_key(a), 8) == shard_of_key(record_key(b), 8)
        assert 0 <= shard_of_key(record_key(a), 8) < 8

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(ProcessRecord)])
    def test_digest_sees_every_field(self, name):
        """Every column moves the digest; ``None``, ``0`` and ``""`` differ."""
        base = _records(1, seed=2)[0]
        if isinstance(getattr(base, name), str):
            values = ["", "0", "None", "PrgEnv-gnu"]
        elif name in ("uid", "gid", "ppid"):
            values = [None, 0, 1]
        else:
            values = [0, 1]
        digests = {record_digest(dataclasses.replace(base, **{name: value}))
                   for value in values}
        assert len(digests) == len(values)

    def test_digest_sees_which_column_holds_a_value(self):
        base = _records(1, seed=2)[0]
        one = dataclasses.replace(base, modules="x", modules_h="")
        other = dataclasses.replace(base, modules="", modules_h="x")
        assert record_digest(one) != record_digest(other)

    def test_blob_digest_collision_inside_one_batch_raises(self, monkeypatch):
        """The first payload is only staged when the second arrives: the
        check sees it there, and nothing of the batch is stored."""
        monkeypatch.setattr(tiered_module, "fnv1a_64", lambda data: 42)
        first, other = (dataclasses.replace(record, **dict.fromkeys(DEDUP_FIELDS, heavy))
                        for record, heavy in zip(_records(2, seed=2),
                                                 ("payload A", "payload B")))
        tiered = TieredStore(MemoryBackend(), campaign="c")
        with pytest.raises(StoreError, match="collision"):
            tiered.ingest_records([first, other])
        assert tiered.record_count() == 0
        assert tiered.statistics()["blob_entries"] == 0
        assert tiered.statistics()["silver_rows"] == 0

    @pytest.mark.parametrize("memoised", [False, True],
                             ids=["cold", "memoised"])
    def test_blob_digest_collision_raises(self, monkeypatch, memoised):
        """Two distinct payloads under one FNV-64 digest are refused -- also
        when the first is answered from the store's content memo."""
        monkeypatch.setattr(tiered_module, "fnv1a_64", lambda data: 42)
        heavy_a = dict.fromkeys(DEDUP_FIELDS, "payload A")
        heavy_b = dict.fromkeys(DEDUP_FIELDS, "payload B")
        first, again, other = (dataclasses.replace(record, **heavy)
                               for record, heavy in zip(
                                   _records(3, seed=2),
                                   (heavy_a, heavy_a, heavy_b)))
        backend = MemoryBackend()
        tiered = TieredStore(backend, campaign="c")
        tiered.ingest_records([first])
        if memoised:
            tiered.ingest_records([again])  # same content: a memo hit
            assert tiered.statistics()["blob_dedup_hits"] == \
                2 * len(DEDUP_FIELDS) - 1
        else:
            tiered = TieredStore(backend, campaign="c")  # nothing memoised
        with pytest.raises(StoreError, match="collision"):
            tiered.ingest_records([other])


_AWKWARD = ["", "plain", 'say "hi"', "back\\slash \\n", "tab\there\nnewline\x00nul\x1f",
            "caf\u00e9 \u20ac", "astral \U0001f600\U00010348", "%d %s %(name)s 100%% %",
            "\u2028\u2029\x7f"]
_texts = st.sampled_from(_AWKWARD) | st.text(max_size=20)
_ints = st.integers(-2 ** 40, 2 ** 40) | st.sampled_from([0, -1])
_any_record = st.builds(
    ProcessRecord, jobid=_texts, stepid=_texts, pid=_ints, hash=_texts,
    host=_texts, time=_ints, uid=st.none() | _ints, gid=st.none() | _ints,
    ppid=st.none() | _ints, incomplete=st.integers(0, 1),
    **{name: _texts for name in PROCESS_FIELDS[9:-1]})


class TestSilverPayload:
    """The payload template writes the bytes ``json.dumps(sort_keys=True)`` would."""

    @staticmethod
    def _reference(record: ProcessRecord, campaign: str) -> str:
        return json.dumps({
            "campaign": campaign,
            "digest": str(record_digest(record)),
            "fields": {name: getattr(record, name) for name in PROCESS_FIELDS
                       if name not in DEDUP_FIELDS},
            "blobs": {name: str(fnv1a_64(getattr(record, name).encode("utf-8")))
                      for name in DEDUP_FIELDS},
        }, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_any_record, min_size=1, max_size=4, unique_by=record_key),
           _texts)
    def test_payload_is_the_sorted_json_dump(self, records, campaign):
        tiered = TieredStore(MemoryBackend(), campaign=campaign)
        tiered.ingest_records(records)
        stored = {key: payload for shard in range(tiered.shards)
                  for key, payload in tiered.backend.iter_rows(shard)}
        assert stored == {record_key(record): self._reference(record, campaign)
                          for record in records}
        for record in records:
            assert tiered._decode(stored[record_key(record)]) == \
                (record, campaign, record_digest(record))
        assert tiered.records() == _sorted(records)

    def test_a_null_in_a_text_column_is_stored_as_null(self):
        """``processes`` text columns are nullable; a row read back with a
        NULL keeps it through silver (inline columns only)."""
        record = dataclasses.replace(_records(1, seed=2)[0], symbols_h=None,
                                     script_path=None)
        tiered = TieredStore(MemoryBackend(), campaign="c")
        tiered.ingest_records([record])
        ((_key, payload),) = [row for shard in range(tiered.shards)
                              for row in tiered.backend.iter_rows(shard)]
        assert json.loads(payload)["fields"]["script_path"] is None
        assert json.loads(payload)["digest"] == str(record_digest(record))
        assert tiered.records() == [record]


@pytest.mark.parametrize("backend_cls", BACKENDS)
class TestRollupEquivalence:
    """rollup == recompute, both backends, shuffled ingest, many seeds."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_shuffled_batches_match_recompute(self, backend_cls, seed):
        records = _records(120, seed=seed)
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        # Ingest in arbitrary batch boundaries and arrival order.
        for start in range(0, len(shuffled), 17):
            tiered.ingest_records(shuffled[start:start + 17])
        _assert_tables_match(tiered, records, _USERS)
        assert tiered.record_count() == len(records)
        tiered.close()

    def test_mid_ingest_snapshots_match_recompute(self, backend_cls):
        """The rollups are right at *every* prefix, not just at the end."""
        records = _records(90, seed=5)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        for start in range(0, len(records), 30):
            tiered.ingest_records(records[start:start + 30])
            _assert_tables_match(tiered, records[:start + 30], _USERS)
        tiered.close()

    def test_redelivery_is_a_dedup_skip(self, backend_cls):
        records = _records(40, seed=3)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        assert tiered.ingest_records(records) == len(records)
        assert tiered.ingest_records(records) == 0  # unchanged -> skipped
        assert tiered.statistics()["rollup_dedup_skips"] == len(records)
        _assert_tables_match(tiered, records, _USERS)
        tiered.close()

    def test_changed_record_supersedes_and_requeries(self, backend_cls):
        records = _records(40, seed=4)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        tiered.ingest_records(records)
        updated = _records(40, seed=4)
        updated[7].modules = "PrgEnv-gnu"
        updated[7].executable = "/usr/bin/sed"
        tiered.ingest_records([updated[7]])
        _assert_tables_match(tiered, updated, _USERS)
        assert tiered.record_count() == len(records)  # a version, not a row
        assert tiered.statistics()["rollup_query_misses"] >= 1
        tiered.close()

    def test_compaction_is_idempotent(self, backend_cls):
        records = _records(60, seed=6)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        tiered.ingest_records(records)
        updated = _records(60, seed=6)
        for index in (3, 12, 30):
            updated[index].objects = "/lib64/libnew.so"
        tiered.ingest_records([updated[3], updated[12], updated[30]])
        silver_rows = tiered.statistics()["silver_rows"]
        dropped = tiered.compact()
        assert dropped == 3  # exactly the superseded versions
        assert tiered.statistics()["silver_rows"] == silver_rows - 3
        _assert_tables_match(tiered, updated, _USERS)
        # Second pass finds nothing to fold -- and changes nothing.
        assert tiered.compact() == 0
        _assert_tables_match(tiered, updated, _USERS)
        tiered.close()

    def test_cross_campaign_blob_dedup(self, backend_cls):
        """Two campaigns over the same payloads store each blob once."""
        tiered = TieredStore(backend_cls(), campaign="a", user_names=_USERS)
        first = _records(50, seed=8)
        tiered.ingest_records(first, campaign="a")
        blobs_after_one = tiered.statistics()["blob_entries"]
        second = _records(50, seed=9)
        for index, record in enumerate(second):
            record.pid += 10_000  # distinct identities, same payload pools
        tiered.ingest_records(second, campaign="b")
        assert tiered.statistics()["blob_entries"] == blobs_after_one
        assert tiered.statistics()["blob_dedup_hits"] > len(first)
        # Per-campaign rollups stay independent and correct.
        _assert_tables_match(tiered, first, _USERS, campaign="a")
        _assert_tables_match(tiered, second, _USERS, campaign="b")
        tiered.close()

    def test_retention_drops_one_campaign_and_keeps_shared_blobs(
            self, backend_cls):
        tiered = TieredStore(backend_cls(), campaign="a", user_names=_USERS)
        first = _records(30, seed=10)
        tiered.ingest_records(first, campaign="a")
        second = _records(30, seed=11)
        for record in second:
            record.pid += 10_000
        tiered.ingest_records(second, campaign="b")
        assert tiered.drop_campaign("a") == len(first)
        assert tiered.campaigns() == ["b"]
        assert tiered.record_count() == len(second)
        _assert_tables_match(tiered, second, _USERS)  # b now unambiguous
        # Blobs referenced by the survivor were not collected.
        assert tiered.statistics()["blob_entries"] > 0
        assert tiered.drop_campaign("a") == 0  # idempotent
        tiered.close()

    def test_retention_rewrites_only_shards_that_lost_rows(self, backend_cls):
        rewritten = []

        class Spy(backend_cls):
            def replace_rows(self, shard, rows):
                rewritten.append(shard)
                super().replace_rows(shard, rows)

        def shard(record):
            return shard_of_key(record_key(record), DEFAULT_SHARDS)

        records = _records(60, seed=15)
        doomed = [record for record in records if shard(record) in (0, 2)][:6]
        assert {shard(record) for record in doomed} == {0, 2}
        kept = [record for record in records if record not in doomed]
        assert {shard(record) for record in kept} == set(range(DEFAULT_SHARDS))
        tiered = TieredStore(Spy(), campaign="keep", user_names=_USERS)
        tiered.ingest_records(kept)
        tiered.ingest_records(doomed, campaign="doomed")
        assert tiered.drop_campaign("doomed") == len(doomed)
        assert rewritten == [0, 2]  # shards 1 and 3 held nothing of it
        assert _sorted(tiered.records()) == _sorted(kept)
        tiered.close()

    def test_collected_blobs_are_rewritten_on_reingest(self, backend_cls):
        """Blob deletion forgets the content memo: content the store had
        verified, then garbage-collected, is written again when it returns."""
        records = _records(40, seed=16)
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        tiered.ingest_records(records)
        assert tiered.drop_campaign("c") == len(records)
        assert tiered.statistics()["blob_entries"] == 0
        tiered.ingest_records(records)
        assert tiered.records() == _sorted(records)
        # The same through compaction: supersede one payload away, collect
        # it, then bring the original version back.
        changed = dataclasses.replace(records[3], maps="7f00-7fff r-xp /only/here")
        tiered.ingest_records([changed])
        original = dataclasses.replace(changed, maps=records[3].maps)
        tiered.ingest_records([original])
        tiered.compact()
        assert tiered.statistics()["blobs_collected"] > 0
        tiered.ingest_records([changed])
        expected = _sorted([changed if record is records[3] else record
                            for record in records])
        assert tiered.records() == expected
        _assert_tables_match(tiered, expected, _USERS)
        tiered.close()

    def test_memo_cap_changes_no_answer_and_no_counter(self, backend_cls,
                                                       monkeypatch):
        def run():
            tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
            records = _records(80, seed=18)
            for start in range(0, len(records), 16):
                tiered.ingest_records(records[start:start + 16])
            tiered.ingest_records(records[:8])  # re-delivery
            tables = (tiered.user_activity(), tiered.system_executables(),
                      tiered.shared_object_variants("bash"),
                      tiered.python_interpreters())
            outcome = (tiered.records(), tables, tiered.statistics())
            tiered.close()
            return outcome

        uncapped = run()
        monkeypatch.setattr(tiered_module, "MEMO_ENTRIES", 2)
        assert run() == uncapped

    def test_rekeyed_batches_hash_no_column_twice(self, backend_cls,
                                                  monkeypatch):
        """The work bound behind the ingest rate, as a count: launching the
        same binaries again hashes no byte the store has already hashed."""
        hashed = []
        fnv1a_64 = tiered_module.fnv1a_64

        def counting(data):
            hashed.append(len(data))
            return fnv1a_64(data)

        monkeypatch.setattr(tiered_module, "fnv1a_64", counting)
        batch = _records(200, seed=19)

        def ingest(times):
            del hashed[:]
            tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
            for round_ in range(times):
                tiered.ingest_records([
                    dataclasses.replace(record, pid=record.pid + 1000 * round_)
                    for record in batch])
            assert tiered.record_count() == times * len(batch)
            tiered.close()
            return sum(hashed)

        once = ingest(1)
        assert 0 < once < sum(len(getattr(record, name)) for record in batch
                              for name in DEDUP_FIELDS)
        assert ingest(10) == once

    def test_multi_campaign_query_without_campaign_is_ambiguous(
            self, backend_cls):
        tiered = TieredStore(backend_cls(), campaign="a", user_names=_USERS)
        tiered.ingest_records(_records(5, seed=12), campaign="a")
        more = _records(5, seed=13)
        for record in more:
            record.pid += 10_000
        tiered.ingest_records(more, campaign="b")
        with pytest.raises(StoreError):
            tiered.user_activity()
        tiered.close()

    def test_statistics_keys_are_all_registered(self, backend_cls):
        tiered = TieredStore(backend_cls(), campaign="c", user_names=_USERS)
        tiered.ingest_records(_records(10, seed=14))
        assert_registered_counters(tiered.statistics(),
                                   context="TieredStore.statistics()")
        tiered.close()


class TestSqlitePersistence:
    def test_reopen_rebuilds_gold_from_silver(self, tmp_path):
        path = str(tmp_path / "tiers.db")
        records = _records(80, seed=20)
        tiered = TieredStore(SqliteBackend(path), campaign="c",
                             user_names=_USERS)
        tiered.ingest_records(records)
        expected = tiered.user_activity()
        tiered.close()
        reopened = TieredStore(SqliteBackend(path), campaign="c",
                               user_names=_USERS)
        assert reopened.statistics()["rollup_rebuilds"] == 1
        assert reopened.user_activity() == expected
        _assert_tables_match(reopened, records, _USERS)
        reopened.close()

    def test_shard_count_is_pinned_at_creation(self, tmp_path):
        path = str(tmp_path / "tiers.db")
        tiered = TieredStore(SqliteBackend(path), shards=4, campaign="c")
        tiered.ingest_records(_records(5, seed=21))
        tiered.close()
        with pytest.raises(StoreError, match="shard"):
            TieredStore(SqliteBackend(path), shards=8, campaign="c")

    def test_digest_scheme_is_pinned_at_creation(self, tmp_path):
        path = str(tmp_path / "tiers.db")
        tiered = TieredStore(SqliteBackend(path), campaign="c")
        assert tiered.backend.get_meta("digest_scheme") == DIGEST_SCHEME
        tiered.ingest_records(_records(5, seed=21))
        tiered.close()
        # A backend written before the scheme was pinned: rows, no marker.
        backend = SqliteBackend(path)
        with backend.connection:
            backend.connection.execute(
                "DELETE FROM tier_meta WHERE name = 'digest_scheme'")
        with pytest.raises(StoreError, match="attach a fresh tier backend"):
            TieredStore(backend, campaign="c")
        backend.set_meta("digest_scheme", "fnv1a64-joined-record")
        with pytest.raises(StoreError, match="fnv1a64-joined-record"):
            TieredStore(backend, campaign="c")
        backend.close()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.builds(
        ProcessRecord,
        jobid=st.text(max_size=4), stepid=st.sampled_from(["0", "1"]),
        pid=st.integers(0, 2 ** 40), hash=st.text(max_size=4),
        host=st.sampled_from(["n1", "n2"]), time=st.integers(0, 2 ** 40),
        uid=st.none() | st.integers(0, 70000),
        gid=st.none() | st.integers(0, 70000),
        ppid=st.none() | st.integers(0, 2 ** 40),
        executable=st.text(max_size=12), modules=st.text(max_size=12),
        objects=st.text(max_size=40), objects_h=st.text(max_size=8),
        maps=st.text(max_size=40), script_meta=st.text(max_size=8),
        incomplete=st.integers(0, 1),
    ), unique_by=record_key, min_size=1, max_size=8))
    def test_stored_digest_is_record_digest(self, records):
        """``record_digest`` is the definition: the store's memoised route
        writes it into silver, and a reopen reads the same value back."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "tiers.db")
            tiered = TieredStore(SqliteBackend(path), campaign="c")
            tiered.ingest_records(records)
            expected = {record_key(record): record_digest(record)
                        for record in records}
            stored = {key: int(json.loads(payload)["digest"])
                      for shard in range(tiered.shards)
                      for key, payload in tiered.backend.iter_rows(shard)}
            assert stored == expected
            tiered.close()
            reopened = TieredStore(SqliteBackend(path), campaign="c")
            assert {key: digest for key, (digest, _label)
                    in reopened._versions.items()} == expected
            assert reopened.records() == _sorted(records)
            assert reopened.ingest_records(records) == 0  # all dedup skips
            reopened.close()

    def test_silver_bytes_do_not_depend_on_the_string_hash_seed(self, tmp_path):
        """The digests lean on dict memos; what reaches disk must not."""
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_tiered import _records\n"
            "from repro.db.tiered import SqliteBackend, TieredStore\n"
            "tiered = TieredStore(SqliteBackend(sys.argv[2]), campaign='c')\n"
            "records = _records(60, seed=22)\n"
            "tiered.ingest_records(records[:30])\n"
            "tiered.ingest_records(records[20:])\n"
            "for shard in range(tiered.shards):\n"
            "    for row in tiered.backend.iter_rows(shard):\n"
            "        print(shard, *row)\n"
            "for row in tiered.backend.connection.execute(\n"
            "        'SELECT digest, content FROM tier_blobs ORDER BY digest'):\n"
            "    print(*row)\n")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run(
                [sys.executable, "-c", script, os.path.dirname(__file__),
                 str(tmp_path / f"tiers-{hash_seed}.db")],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") > 60

    def test_factory_builds_both_backends_and_rejects_unknown(self, tmp_path):
        memory = build_tiered_store("memory")
        assert isinstance(memory.backend, MemoryBackend)
        on_disk = build_tiered_store(
            "sqlite", store_path=str(tmp_path / "siren.db"))
        assert isinstance(on_disk.backend, SqliteBackend)
        assert (tmp_path / "siren.db.tiered").exists()
        on_disk.close()
        with pytest.raises(StoreError):
            build_tiered_store("parquet")

    def test_default_shards(self):
        tiered = TieredStore(MemoryBackend())
        assert tiered.shards == DEFAULT_SHARDS
        tiered.close()


class _FailingOnce:
    """A connection whose first silver ``executemany`` finds the database
    locked -- inside the transaction, after the statements before it ran."""

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection, self._failures = connection, 1

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc):
        return self._connection.__exit__(*exc)

    def executemany(self, sql, rows):
        if "silver_" in sql and self._failures:
            self._failures -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._connection.executemany(sql, rows)


def _sqlite_failing_once() -> SqliteBackend:
    backend = SqliteBackend()
    backend.connection = _FailingOnce(backend.connection)
    return backend


def _memory_failing_once() -> MemoryBackend:
    class FailingOnce(MemoryBackend):
        failures = 1

        def append_rows(self, *args):
            if self.failures:
                self.failures -= 1
                raise sqlite3.OperationalError("database is locked")
            super().append_rows(*args)

    return FailingOnce()


class TestMessageStoreSync:
    def _record(self, pid: int) -> ProcessRecord:
        return ProcessRecord(jobid="1", stepid="0", pid=pid, hash="a" * 32,
                             host="n1", time=100, uid=1000,
                             executable=f"/usr/bin/x{pid}", category="system")

    def test_inserts_auto_sync_through_the_delta_stream(self):
        store = MessageStore()
        tiered = TieredStore(MemoryBackend(), campaign="c")
        store.attach_tiered(tiered)
        store.insert_processes([self._record(1), self._record(2)])
        assert tiered.record_count() == 2
        # Every insert flavour feeds the same cursor; re-offered keys are
        # first-close-wins in bronze, so silver sees them exactly once.
        store.insert_processes_if_absent([self._record(2), self._record(3)])
        assert tiered.record_count() == 3
        store.insert_or_replace_processes([self._record(3)])
        assert tiered.record_count() == 3
        assert tiered.statistics()["rollup_syncs"] >= 3
        assert _sorted(store.load_processes()) == _sorted(tiered.records())

    def test_attach_syncs_preexisting_records(self):
        store = MessageStore()
        store.insert_processes([self._record(1)])
        tiered = TieredStore(MemoryBackend(), campaign="c")
        store.attach_tiered(tiered)
        assert tiered.record_count() == 1

    @pytest.mark.parametrize("make_backend", [_memory_failing_once,
                                              _sqlite_failing_once],
                             ids=["memory", "sqlite"])
    def test_a_failed_sync_is_repeated_by_the_next(self, make_backend):
        """One ``database is locked`` under the tier must not leave it behind
        ``processes`` for good: nothing of the failed batch is believed, and
        the next sync delivers it."""
        rng = random.Random(31)
        r1, r2, r3 = (dataclasses.replace(_record(index, rng), maps=f"maps {index}")
                      for index in range(3))
        store = MessageStore()
        tiered = TieredStore(make_backend(), campaign="c", user_names=_USERS)
        store.attach_tiered(tiered)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.insert_processes_if_absent([r1, r2])
        assert store.process_count() == 2       # bronze committed first
        assert tiered.record_count() == 0 and tiered._versions == {}
        assert tiered._stored_blobs == {}       # no memo of rolled-back blobs
        stats_after_failure = tiered.statistics()
        assert stats_after_failure["silver_rows"] == 0
        assert stats_after_failure["blob_entries"] == 0
        assert stats_after_failure["rollup_records_applied"] == 0

        store.insert_processes_if_absent([r3])
        assert tiered.records() == _sorted(store.load_processes()) \
            == _sorted([r1, r2, r3])
        assert tiered.statistics()["silver_rows"] == 3
        _assert_tables_match(tiered, [r1, r2, r3], _USERS)
        for shard in range(tiered.shards):
            for _key, payload in tiered.backend.iter_rows(shard):
                for digest in json.loads(payload)["blobs"].values():
                    assert tiered.backend.get_blob(int(digest)) is not None
        assert store.sync_tiered() == 0         # and the cursor caught up

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["insert_processes_if_absent",
                         "insert_or_replace_processes", "insert_processes"]),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["", "a", "b"])),
                 max_size=5)), max_size=8))
    def test_handed_over_batches_equal_the_reread(self, operations):
        """Whatever the writes -- fresh keys, re-offered keys, a key twice in
        one batch, a content-free resurrected key (``""``), an empty batch --
        a store that may take the flushed batch as the delta ends exactly
        where one forced through ``load_processes_since`` on every sync does."""
        def run(force_reread: bool):
            store = MessageStore()
            tiered = TieredStore(MemoryBackend(), campaign="c", user_names=_USERS)
            store.attach_tiered(tiered)
            if force_reread:
                store.sync_tiered = lambda delta=None: \
                    MessageStore.sync_tiered(store, None)
            for method, batch in operations:
                getattr(store, method)([
                    dataclasses.replace(self._record(pid), modules=content,
                                        executable=f"/usr/bin/{content}")
                    for pid, content in batch])
            tables = (tiered.user_activity(), tiered.system_executables(),
                      tiered.shared_object_variants("a"),
                      tiered.python_interpreters())
            outcome = (tiered.backend._shards, tiered.backend._blobs,
                       tiered._versions, tiered.statistics(), tables,
                       store._tiered_cursor, store.load_processes())
            assert tiered.records() == _sorted(outcome[-1])
            return outcome

        assert run(force_reread=False) == run(force_reread=True)


class TestCampaignProperty:
    """Full campaigns: rollups match recompute in every ingest mode."""

    PROFILES = DEFAULT_PROFILES[:3]

    def _run(self, *, seed=17, loss_rate=0.01, **overrides):
        config = CampaignConfig(scale=0.0, seed=seed, loss_rate=loss_rate,
                                rollups=True, **overrides)
        return DeploymentCampaign(config=config, profiles=self.PROFILES).run()

    def _assert_result_matches(self, result):
        tiered = result.tiered
        assert tiered is not None
        assert tiered.record_count() == len(result.records)
        _assert_tables_match(tiered, result.records, result.user_names)
        assert_registered_counters(result.statistics(),
                                   context="CampaignResult.statistics()")

    @pytest.mark.parametrize("seed,loss_rate", [(17, 0.0), (23, 0.01)])
    def test_batch_campaign_rollups_match(self, seed, loss_rate):
        self._assert_result_matches(
            self._run(seed=seed, loss_rate=loss_rate,
                      store_backend="memory"))

    def test_streaming_campaign_rollups_match(self):
        self._assert_result_matches(
            self._run(ingest_mode="streaming", keep_raw_messages=False))

    def test_sharded_streaming_campaign_rollups_match(self):
        self._assert_result_matches(
            self._run(ingest_mode="streaming", ingest_shards=2,
                      keep_raw_messages=False, store_backend="memory"))

    def test_mid_run_rollups_match_snapshot(self):
        """Gold answers are right mid-campaign, at a live snapshot point."""
        config = CampaignConfig(scale=0.0, seed=4, loss_rate=0.0002,
                                ingest_mode="streaming", ingest_shards=2,
                                keep_raw_messages=False, rollups=True)
        campaign = DeploymentCampaign(config=config, profiles=self.PROFILES)
        checked = []

        def on_job(jobs_run: int) -> None:
            if jobs_run == 5:
                snapshot = campaign.snapshot()
                user_names = {user.uid: user.username
                              for user in campaign.cluster.users.all()}
                _assert_tables_match(campaign.tiered, snapshot, user_names)
                checked.append(len(snapshot))

        campaign.on_job = on_job
        result = campaign.run()
        (snapshot_size,) = checked
        assert 0 < snapshot_size < len(result.records)
        self._assert_result_matches(result)

    def test_invalid_store_backend_rejected(self):
        from repro.util.errors import CollectionError
        with pytest.raises(CollectionError):
            DeploymentCampaign(
                CampaignConfig(store_backend="parquet")).prepare()
