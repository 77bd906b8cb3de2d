"""Tests for the artifact hasher and the SIREN collector hook."""

import pytest

from repro.collector.classify import ExecutableCategory
from repro.collector.fuzzy import ArtifactHasher
from repro.collector.hooks import SirenCollector
from repro.collector.policy import CollectionPolicy, ScopePolicy
from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore
from repro.hashing.ssdeep import compare
from repro.hpcsim.process import ProcessContext
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.transport.channel import InMemoryChannel
from repro.transport.messages import UDPMessage
from repro.transport.receiver import MessageReceiver
from repro.transport.sender import UDPSender
from repro.util.rng import SeededRNG


class TestArtifactHasher:
    def test_executable_hashes_all_present(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        hashes = hasher.executable_hashes(icon.path)
        assert hashes.file_hash.count(":") == 2
        assert hashes.strings_hash.count(":") == 2
        assert hashes.symbols_hash.count(":") == 2

    def test_cache_hit_on_second_call(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        path = manifest.find_executable("icon", "cray-r1", "alice").path
        hasher.executable_hashes(path)
        computed = hasher.hashes_computed
        hasher.executable_hashes(path)
        assert hasher.hashes_computed == computed
        assert hasher.cache_hits >= 1

    def test_cache_invalidated_on_mtime_change(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        path = manifest.tool("bash")
        first = hasher.executable_hashes(path)
        cluster.filesystem.advance_clock(10)
        cluster.filesystem.add_file(path, cluster.filesystem.read(path) + b"\x00appended",
                                    executable=True)
        second = hasher.executable_hashes(path)
        assert first.file_hash != second.file_hash

    def test_same_second_recompile_is_rehashed(self, app_cluster):
        """Regression: the path tier was keyed on ``(path, mtime)``, and a
        rewrite within one clock tick keeps mtime, inode and here even the
        size -- the edit-compile-run loop got the *previous* binary's hashes."""
        cluster, _ = app_cluster
        filesystem = cluster.filesystem
        old, new = SeededRNG(61).bytes(6000), SeededRNG(62).bytes(6000)
        filesystem.add_file("/scratch/a.out", old, executable=True)
        hasher = ArtifactHasher(filesystem)
        before = hasher.executable_hashes("/scratch/a.out")
        stat = filesystem.stat("/scratch/a.out")
        filesystem.add_file("/scratch/a.out", new, executable=True)
        assert filesystem.stat("/scratch/a.out") == stat   # nothing to key on
        after = hasher.executable_hashes("/scratch/a.out")
        assert before.file_hash == str(hasher.hasher.hash(old))
        assert after.file_hash == str(hasher.hasher.hash(new))
        assert after != before

    def test_same_second_script_rewrite_is_rehashed(self, app_cluster):
        cluster, _ = app_cluster
        filesystem = cluster.filesystem
        filesystem.add_file("/users/alice/run.py", b"print('first draft')\n" * 40)
        hasher = ArtifactHasher(filesystem)
        before = hasher.script_hash("/users/alice/run.py")
        filesystem.add_file("/users/alice/run.py", b"print('second draft')\n" * 40)
        after = hasher.script_hash("/users/alice/run.py")
        assert after == str(hasher.hasher.hash(filesystem.read("/users/alice/run.py")))
        assert after != before

    def test_cache_can_be_disabled(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem, cache_enabled=False)
        path = manifest.tool("bash")
        hasher.executable_hashes(path)
        hasher.executable_hashes(path)
        assert hasher.hashes_computed == 2

    def test_list_hash_memoised(self, app_cluster):
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        first = hasher.list_hash(["/lib64/libc.so.6", "/lib64/libm.so.6"])
        second = hasher.list_hash("/lib64/libc.so.6\n/lib64/libm.so.6")
        assert first == second
        assert hasher.cache_hits >= 1

    def test_similar_symbol_tables_similar_hashes(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        r1 = manifest.find_executable("icon", "cray-r1", "alice").path
        r2 = manifest.find_executable("icon", "cray-r2", "alice").path
        h1 = hasher.executable_hashes(r1)
        h2 = hasher.executable_hashes(r2)
        assert compare(h1.symbols_hash, h2.symbols_hash) >= 90

    def test_script_hash(self, app_cluster):
        cluster, _ = app_cluster
        cluster.filesystem.add_file("/users/alice/s.py", b"import numpy\nprint(42)\n" * 20)
        hasher = ArtifactHasher(cluster.filesystem)
        assert hasher.script_hash("/users/alice/s.py").count(":") == 2
        hasher.script_hash("/users/alice/s.py")
        assert hasher.cache_hits >= 1

    def test_clear_cache(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        hasher.executable_hashes(manifest.tool("bash"))
        hasher.clear_cache()
        hasher.executable_hashes(manifest.tool("bash"))
        assert hasher.hashes_computed == 2


class TestScriptExecutableCacheSeparation:
    """Regression: a path first hashed as a script must still yield full
    executable hashes -- the seed stored ``ExecutableHashes(digest, "", "")``
    under the same key that ``executable_hashes`` read back."""

    def test_executable_after_script_has_strings_and_symbols(self, app_cluster):
        cluster, manifest = app_cluster
        path = manifest.find_executable("icon", "cray-r1", "alice").path
        hasher = ArtifactHasher(cluster.filesystem)
        script_digest = hasher.script_hash(path)
        hashes = hasher.executable_hashes(path)
        assert hashes.file_hash == script_digest
        assert hashes.strings_hash.count(":") == 2 and hashes.strings_hash != "3::"
        assert hashes.symbols_hash.count(":") == 2 and hashes.symbols_hash != "3::"

    def test_script_after_executable_reuses_file_hash(self, app_cluster):
        cluster, manifest = app_cluster
        path = manifest.find_executable("icon", "cray-r1", "alice").path
        hasher = ArtifactHasher(cluster.filesystem)
        hashes = hasher.executable_hashes(path)
        computed = hasher.hashes_computed
        assert hasher.script_hash(path) == hashes.file_hash
        assert hasher.hashes_computed == computed  # served from the content tier


class TestContentAddressedCache:
    def test_identical_content_under_different_paths_hashes_once(self, app_cluster):
        cluster, _ = app_cluster
        content = b"#!/bin/payload\n" + bytes(range(256)) * 40
        cluster.filesystem.add_file("/users/alice/tool", content, executable=True)
        cluster.filesystem.advance_clock(100)
        cluster.filesystem.add_file("/users/bob/a.out", content, executable=True)
        hasher = ArtifactHasher(cluster.filesystem)
        first = hasher.executable_hashes("/users/alice/tool")
        second = hasher.executable_hashes("/users/bob/a.out")
        assert first == second
        assert hasher.hashes_computed == 1
        assert hasher.content_cache_hits == 1

    def test_mtime_change_with_same_content_is_a_content_hit(self, app_cluster):
        cluster, _ = app_cluster
        content = b"stable bytes " * 500
        cluster.filesystem.add_file("/users/alice/stable", content, executable=True)
        hasher = ArtifactHasher(cluster.filesystem)
        hasher.executable_hashes("/users/alice/stable")
        cluster.filesystem.advance_clock(50)
        cluster.filesystem.add_file("/users/alice/stable", content, executable=True)
        hasher.executable_hashes("/users/alice/stable")
        assert hasher.hashes_computed == 1
        assert hasher.content_cache_hits == 1

    def test_cache_disabled_turns_the_content_tier_off_too(self, app_cluster):
        cluster, _ = app_cluster
        content = b"twice-hashed " * 300
        cluster.filesystem.add_file("/users/alice/one", content, executable=True)
        cluster.filesystem.add_file("/users/alice/two", content, executable=True)
        hasher = ArtifactHasher(cluster.filesystem, cache_enabled=False)
        hasher.executable_hashes("/users/alice/one")
        hasher.executable_hashes("/users/alice/two")
        assert hasher.hashes_computed == 2
        assert hasher.content_cache_hits == 0

    def test_script_content_shared_across_paths(self, app_cluster):
        cluster, _ = app_cluster
        body = b"import numpy\nprint('hi')\n" * 30
        cluster.filesystem.add_file("/users/alice/a.py", body)
        cluster.filesystem.add_file("/users/bob/copy.py", body)
        hasher = ArtifactHasher(cluster.filesystem)
        assert hasher.script_hash("/users/alice/a.py") == \
            hasher.script_hash("/users/bob/copy.py")
        assert hasher.hashes_computed == 1


class TestListCacheLRU:
    def test_oldest_entry_evicted_once_full(self, app_cluster):
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem, list_cache_limit=3)
        lists = [[f"/lib64/lib{index}.so"] for index in range(4)]
        for items in lists:
            hasher.list_hash(items)
        assert hasher.hashes_computed == 4
        assert len(hasher._list_cache) == 3
        # lists[0] was evicted: re-querying it recomputes...
        hasher.list_hash(lists[0])
        assert hasher.hashes_computed == 5
        # ...while the most recent entries are still served from cache.
        hasher.list_hash(lists[3])
        assert hasher.hashes_computed == 5
        assert hasher.cache_hits >= 1

    def test_recently_used_entry_survives_eviction(self, app_cluster):
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem, list_cache_limit=2)
        hasher.list_hash(["a"])
        hasher.list_hash(["b"])
        hasher.list_hash(["a"])         # refresh "a": now "b" is the LRU entry
        hasher.list_hash(["c"])         # evicts "b"
        computed = hasher.hashes_computed
        hasher.list_hash(["a"])
        assert hasher.hashes_computed == computed
        hasher.list_hash(["b"])
        assert hasher.hashes_computed == computed + 1

    def test_cache_never_exceeds_limit(self, app_cluster):
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem, list_cache_limit=5)
        for index in range(20):
            hasher.list_hash([f"/opt/item{index}"])
        assert len(hasher._list_cache) == 5


class TestNoPerBytePythonAtProcessStart:
    """Count guards (no timing): what a process start may not go back to."""

    def test_cold_executable_hash_never_runs_python_fnv64(self, app_cluster, monkeypatch):
        import repro.collector.fuzzy as fuzzy_module
        import repro.hashing.fnv as fnv_module

        def forbidden(*_args, **_kwargs):
            raise AssertionError("fnv1a_64 called while hashing an executable")

        monkeypatch.setattr(fnv_module, "fnv1a_64", forbidden)
        assert not hasattr(fuzzy_module, "fnv1a_64")
        cluster, _ = app_cluster
        image = SeededRNG(63).bytes(40000)
        cluster.filesystem.add_file("/scratch/never-seen", image, executable=True)
        hasher = ArtifactHasher(cluster.filesystem)
        hashes = hasher.executable_hashes("/scratch/never-seen")
        assert hashes.file_hash == str(hasher.hasher.hash_reference(image))
        assert (hasher.hashes_computed, hasher.content_cache_hits) == (1, 0)

    def _fifty_starts_and_ends(self, app_cluster, *, memoised):
        cluster, manifest = app_cluster
        datagrams: list[bytes] = []
        channel = InMemoryChannel()
        channel.subscribe(datagrams.append)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library)
        collector.hasher.cache_enabled = memoised
        bash = manifest.tool("bash")
        for pid in range(2000, 2050):
            context = ProcessContext(
                pid=pid, ppid=1, uid=1000, gid=1000, executable=bash, argv=(bash,),
                environment={"SLURM_JOB_ID": "77", "SLURM_STEP_ID": "0"},
                hostname="nid000001", start_time=1_733_000_100)
            collector.on_process_start(context)
            collector.on_process_end(context)
        assert collector.processes_collected == 50 and collector.section_errors == 0
        return collector, datagrams

    def test_path_hash_is_computed_once_per_path(self, app_cluster, monkeypatch):
        import repro.collector.fuzzy as fuzzy_module

        calls: list[str] = []
        real = fuzzy_module.xxh128_hex
        monkeypatch.setattr(fuzzy_module, "xxh128_hex",
                            lambda path: calls.append(path) or real(path))
        bash = app_cluster[1].tool("bash")
        _, memoised = self._fifty_starts_and_ends(app_cluster, memoised=True)
        assert calls == [bash]
        del calls[:]
        _, plain = self._fifty_starts_and_ends(app_cluster, memoised=False)
        assert calls == [bash] * 100
        assert memoised == plain and len(memoised) >= 150
        assert all(UDPMessage.decode(datagram).path_hash == real(bash)
                   for datagram in memoised)

    def test_send_side_pays_per_process_not_per_datagram(self, app_cluster, monkeypatch):
        """The mirror of ``tests/ingest/test_hot_path_counts.py``: a hook call
        frames its process once and enters the transport once; no
        ``UDPMessage`` and no ``.value`` of ``Layer``/``InfoType`` per datagram."""
        import enum

        import repro.collector.hooks as hooks_module

        _, expected = self._fifty_starts_and_ends(app_cluster, memoised=True)

        headers, bursts, value_reads = [], [], []
        wire_header, send = hooks_module.wire_header, UDPSender.send
        property_get = enum.property.__get__

        def counting_header(*key):
            headers.append(key)
            return wire_header(*key)

        def counting_send(self, header, sections):
            bursts.append((header, list(sections)))
            return send(self, header, sections)

        def forbidden_init(self, *_args, **_kwargs):
            raise AssertionError("UDPMessage built between the collector and the wire")

        def counting_get(self, instance, ownerclass=None):
            if isinstance(instance, (Layer, InfoType)):
                value_reads.append((instance, self.name))
            return property_get(self, instance, ownerclass)

        with monkeypatch.context() as patch:
            patch.setattr(hooks_module, "wire_header", counting_header)
            patch.setattr(UDPSender, "send", counting_send)
            patch.setattr(UDPMessage, "__init__", forbidden_init)
            patch.setattr(enum.property, "__get__", counting_get)
            collector, spied = self._fifty_starts_and_ends(app_cluster, memoised=True)

        assert spied == expected and len(spied) >= 150
        assert len(headers) == len(bursts) == 100            # one per hook call
        assert [header for header, _ in bursts] == [wire_header(*key) for key in headers]
        assert len(set(headers)) == 50                       # start and end share it
        assert value_reads == []
        sections = sum(len(sections) for _, sections in bursts)
        assert sections == collector.sender.messages_sent > 100

    def test_clear_cache_empties_the_path_hash_memo(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        expected = hasher.path_hash(manifest.tool("bash"))
        assert hasher._path_hashes == {manifest.tool("bash"): expected}
        hasher.clear_cache()
        assert hasher._path_hashes == {}
        assert hasher.path_hash(manifest.tool("bash")) == expected

    def test_path_hash_memo_is_bounded_oldest_out(self, app_cluster, monkeypatch):
        import repro.collector.fuzzy as fuzzy_module

        monkeypatch.setattr(fuzzy_module, "PATH_HASH_ENTRIES", 3)
        hasher = ArtifactHasher(app_cluster[0].filesystem)
        for index in range(5):
            hasher.path_hash(f"/users/alice/bin/tool{index}")
        assert list(hasher._path_hashes) == [f"/users/alice/bin/tool{index}"
                                             for index in (2, 3, 4)]


def _run_one(cluster, manifest, executable, *, ranks=1, modules=("siren",), argv=None,
             python_script=None, imported_packages=(), mapped_files=()):
    """Helper: run one process through a fresh collector and return its messages."""
    store = MessageStore()
    channel = InMemoryChannel()
    receiver = MessageReceiver(store)
    receiver.attach(channel)
    collector = SirenCollector(cluster.filesystem, UDPSender(channel), manifest.siren_library)
    cluster.register_preload_hook(collector)
    try:
        script = JobScript(name="t", modules=tuple(modules), steps=(
            StepSpec(processes=(ProcessSpec(executable=executable, ranks=ranks,
                                            argv=argv or (executable,),
                                            python_script=python_script,
                                            imported_packages=imported_packages,
                                            mapped_files=mapped_files),)),))
        cluster.run_job("alice", script)
    finally:
        cluster.runtime.unregister_hook(manifest.siren_library)
    receiver.flush()
    return collector, store


class TestSirenCollector:
    def test_user_executable_gets_full_treatment(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        collector, store = _run_one(cluster, manifest, icon.path,
                                    modules=("siren", *icon.required_modules))
        types = {row[7] for row in store.iter_messages()}
        for expected in (InfoType.PROCINFO, InfoType.FILEMETA, InfoType.OBJECTS,
                         InfoType.OBJECTS_H, InfoType.MODULES, InfoType.MODULES_H,
                         InfoType.COMPILERS, InfoType.COMPILERS_H, InfoType.MAPS,
                         InfoType.MAPS_H, InfoType.FILE_H, InfoType.STRINGS_H,
                         InfoType.SYMBOLS_H, InfoType.PROCEND):
            assert expected.value in types
        assert collector.processes_collected == 1

    def test_system_executable_is_not_hashed(self, app_cluster):
        cluster, manifest = app_cluster
        _, store = _run_one(cluster, manifest, manifest.tool("bash"))
        types = {row[7] for row in store.iter_messages()}
        assert InfoType.OBJECTS.value in types
        assert InfoType.FILE_H.value not in types
        assert InfoType.MODULES.value not in types
        assert InfoType.COMPILERS.value not in types

    def test_rank_zero_only(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        collector, _ = _run_one(cluster, manifest, icon.path, ranks=4,
                                modules=("siren", *icon.required_modules))
        assert collector.processes_collected == 1
        assert collector.processes_skipped == 3

    def test_no_collection_without_siren_module(self, app_cluster):
        cluster, manifest = app_cluster
        collector, store = _run_one(cluster, manifest, manifest.tool("bash"), modules=())
        assert collector.processes_collected == 0
        assert store.message_count() == 0

    def test_python_interpreter_script_layer(self, app_cluster):
        cluster, manifest = app_cluster
        script_path = "/users/alice/scripts/pytest_case.py"
        cluster.filesystem.add_file(script_path, b"import numpy\nimport heapq\n")
        interpreter = manifest.interpreter("python3.10")
        _, store = _run_one(cluster, manifest, interpreter,
                            argv=(interpreter, script_path), python_script=script_path)
        layers_types = {(row[6], row[7]) for row in store.iter_messages()}
        assert (Layer.SCRIPT.value, InfoType.FILE_H.value) in layers_types
        assert (Layer.SCRIPT.value, InfoType.FILEMETA.value) in layers_types
        assert (Layer.SELF.value, InfoType.MAPS.value) in layers_types
        # Interpreter itself is not fuzzy hashed under the default policy.
        assert (Layer.SELF.value, InfoType.FILE_H.value) not in layers_types

    def test_missing_script_fails_gracefully(self, app_cluster):
        cluster, manifest = app_cluster
        interpreter = manifest.interpreter("python3.10")
        collector, store = _run_one(cluster, manifest, interpreter,
                                    argv=(interpreter, "/users/alice/notthere.py"))
        assert collector.processes_collected == 1
        layers = {row[6] for row in store.iter_messages()}
        assert Layer.SCRIPT.value not in layers

    def test_relative_script_argument_is_no_script_file(self, app_cluster):
        """Regression: ``app -input run.in`` under an interpreter-named
        executable took ``run.in`` for the script, the virtual filesystem
        raised on the relative path and the SCRIPT section counted a failure
        -- three per campaign.  A relative candidate is "no script file"."""
        cluster, manifest = app_cluster
        interpreter = manifest.interpreter("python3.10")
        collector, store = _run_one(cluster, manifest, interpreter,
                                    argv=(interpreter, "-input", "run.in"))
        assert collector.section_errors == 0
        assert collector.processes_collected == 1
        _, absent = _run_one(cluster, manifest, interpreter,
                             argv=(interpreter, "/users/alice/notthere.py"))
        kinds = [(row[6], row[7], row[8], row[9]) for row in store.iter_messages()]
        assert kinds == [(row[6], row[7], row[8], row[9])
                         for row in absent.iter_messages()]
        assert Layer.SCRIPT.value not in {kind[0] for kind in kinds}

    def test_unframeable_section_does_not_blind_the_rest_of_the_burst(self, app_cluster):
        """Regression: a mapped file named with a 0x1F made MAPS unframeable,
        the sender raised out of the hook at that message and everything
        queued behind it -- MAPS_H and the three fuzzy hashes identification
        rests on -- was never sent.  A file name was enough to evade Table 7."""
        from repro.postprocess.consolidate import Consolidator

        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        hook_failures = cluster.runtime.hook_failures
        cluster.filesystem.add_file("/users/alice/data/in\x1fput.dat", b"input deck")
        collector, store = _run_one(cluster, manifest, icon.path,
                                    modules=("siren", *icon.required_modules),
                                    mapped_files=("/users/alice/data/in\x1fput.dat",))
        types = {row[7] for row in store.iter_messages()}
        every = {InfoType.PROCINFO, InfoType.FILEMETA, InfoType.OBJECTS,
                 InfoType.OBJECTS_H, InfoType.MODULES, InfoType.MODULES_H,
                 InfoType.COMPILERS, InfoType.COMPILERS_H, InfoType.MAPS,
                 InfoType.MAPS_H, InfoType.FILE_H, InfoType.STRINGS_H,
                 InfoType.SYMBOLS_H, InfoType.PROCEND}
        assert types == {info_type.value for info_type in every - {InfoType.MAPS}}
        assert collector.processes_collected == 1 and collector.section_errors == 0
        assert collector.sender.send_errors == 1          # counted once, no new counter
        assert cluster.runtime.hook_failures == hook_failures
        (record,) = Consolidator(store).run()
        assert record.incomplete == 1 and record.maps == ""
        assert record.maps_h and record.file_h and record.strings_h and record.symbols_h

    def test_custom_policy_restricts_collection(self, app_cluster):
        cluster, manifest = app_cluster
        policy = CollectionPolicy(user=ScopePolicy(file_metadata=True), rank_zero_only=True)
        store = MessageStore()
        channel = InMemoryChannel()
        MessageReceiver(store).attach(channel)
        receiver = MessageReceiver(store)
        receiver.attach(channel)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library, policy=policy)
        cluster.register_preload_hook(collector)
        try:
            icon = manifest.find_executable("icon", "cray-r1", "alice")
            script = JobScript(name="t", modules=("siren", *icon.required_modules),
                               steps=(StepSpec(processes=(ProcessSpec(executable=icon.path),)),))
            cluster.run_job("alice", script)
        finally:
            cluster.runtime.unregister_hook(manifest.siren_library)
        receiver.flush()
        types = {row[7] for row in store.iter_messages()}
        assert InfoType.FILE_H.value not in types
        assert InfoType.FILEMETA.value in types

    def test_header_fields_populated(self, app_cluster):
        cluster, manifest = app_cluster
        _, store = _run_one(cluster, manifest, manifest.tool("bash"))
        row = next(iter(store.iter_messages()))
        jobid, stepid, pid, path_hash, host, time = row[0], row[1], row[2], row[3], row[4], row[5]
        assert jobid and stepid == "0" and pid >= 1000
        assert len(path_hash) == 32
        assert host.startswith("nid")
        assert time > 0
