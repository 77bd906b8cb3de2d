"""Tests for the artifact hasher and the SIREN collector hook."""

from unittest import mock

import pytest

import repro.collector.fuzzy as fuzzy_module
from repro.collector.classify import ExecutableCategory
from repro.collector.fuzzy import ArtifactHasher, ExecutableHashes
from repro.collector.hooks import SirenCollector
from repro.collector.policy import TABLE_1
from repro.collector.records import InfoType, Layer
from repro.db.store import MessageStore
from repro.elf.reader import ELFFile
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing
from repro.hashing.ssdeep import FuzzyHasher
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.hpcsim.process import ProcessContext
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.ingest import IncrementalConsolidator
from repro.transport.channel import InMemoryChannel
from repro.transport.messages import UDPMessage
from repro.transport.sender import UDPSender
from repro.util.errors import ELFError
from repro.util.rng import SeededRNG

from oracles.consolidate import raw_messages, records_from_messages
from oracles.ctph import ReferenceHasher

_HASHER = FuzzyHasher()


class TestArtifactHasher:
    def test_executable_hashes_all_present(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        hashes = hasher.executable_hashes(icon.path)
        assert hashes.file_hash.count(":") == 2
        assert hashes.strings_hash.count(":") == 2
        assert hashes.symbols_hash.count(":") == 2

    def test_executable_hashes_are_one_instance_hash_many_call(self, app_cluster):
        """FILE_H, STRINGS_H and SYMBOLS_H are one ``hasher.hash_many`` call
        of three payloads, looked up on the instance at call time, so a
        wrapper installed there sees every byte hashed."""
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        path = manifest.find_executable("icon", "cray-r1", "alice").path
        seen: list[list[int]] = []
        plain = hasher.hasher.hash_many
        hasher.hasher.hash_many = lambda payloads: (
            seen.append([len(data) for data in payloads]) or plain(payloads))
        hashes = hasher.executable_hashes(path)
        assert len(seen) == 1 and len(seen[0]) == 3
        assert seen[0][0] == len(cluster.filesystem.read(path))
        assert hashes.file_hash == FuzzyHasher().hash(cluster.filesystem.read(path))
        hasher.executable_hashes(path)  # a cache hit hashes nothing
        assert len(seen) == 1

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
        assert _HASHER.compare(h1.symbols_hash, h2.symbols_hash) >= 90

    def test_script_hash(self, app_cluster):
        cluster, _ = app_cluster
        cluster.filesystem.add_file("/users/alice/s.py", b"import numpy\nprint(42)\n" * 20)
        hasher = ArtifactHasher(cluster.filesystem)
        assert hasher.script_hash("/users/alice/s.py").count(":") == 2
        hasher.script_hash("/users/alice/s.py")
        assert hasher.cache_hits >= 1

    def test_a_fresh_hasher_hashes_again(self, app_cluster):
        cluster, manifest = app_cluster
        warm = ArtifactHasher(cluster.filesystem)
        first = warm.executable_hashes(manifest.tool("bash"))
        assert warm.executable_hashes(manifest.tool("bash")) == first
        fresh = ArtifactHasher(cluster.filesystem)
        assert fresh.executable_hashes(manifest.tool("bash")) == first
        assert (warm.hashes_computed, fresh.hashes_computed) == (1, 1)


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

    def test_script_content_shared_across_paths(self, app_cluster):
        cluster, _ = app_cluster
        body = b"import numpy\nprint('hi')\n" * 30
        cluster.filesystem.add_file("/users/alice/a.py", body)
        cluster.filesystem.add_file("/users/bob/copy.py", body)
        hasher = ArtifactHasher(cluster.filesystem)
        assert hasher.script_hash("/users/alice/a.py") == \
            hasher.script_hash("/users/bob/copy.py")
        assert hasher.hashes_computed == 1


class TestPathTierOneEntryPerPath:
    """Regression: the path tier was keyed by ``(path, write version)``, so
    every rewrite of a path stranded the old entry for good.  It is keyed by
    path and remembers the write version it hashed."""

    PATH = "/scratch/a.out"

    @staticmethod
    def _payloads(count: int) -> list[bytes]:
        return [SeededRNG(70 + index).bytes(3000) for index in range(count)]

    def test_rewrites_replace_the_executable_entry(self):
        filesystem = VirtualFilesystem()
        hasher = ArtifactHasher(filesystem)
        for payload in self._payloads(5):
            filesystem.advance_clock(1)
            filesystem.add_file(self.PATH, payload, executable=True)
            hashes = hasher.executable_hashes(self.PATH)
        assert list(hasher._exe_cache) == [self.PATH]
        assert hasher._exe_cache[self.PATH] == (filesystem.get(self.PATH).version, hashes)
        assert hasher.hashes_computed == 5

    def test_rewrites_replace_the_script_entry(self):
        filesystem = VirtualFilesystem()
        hasher = ArtifactHasher(filesystem)
        for payload in self._payloads(5):
            filesystem.add_file("/users/alice/run.py", payload)  # same clock tick
            digest = hasher.script_hash("/users/alice/run.py")
        assert hasher._script_cache == {
            "/users/alice/run.py": (filesystem.get("/users/alice/run.py").version, digest)}
        assert digest == str(hasher.hasher.hash(self._payloads(5)[-1]))

    def test_an_unchanged_path_is_a_path_hit(self):
        filesystem = VirtualFilesystem()
        filesystem.add_file(self.PATH, self._payloads(1)[0], executable=True)
        hasher = ArtifactHasher(filesystem)
        first = hasher.executable_hashes(self.PATH)
        assert hasher.executable_hashes(self.PATH) == first
        assert (hasher.hashes_computed, hasher.cache_hits,
                hasher.content_cache_hits) == (1, 1, 0)

    def test_writing_earlier_bytes_back_is_a_content_hit(self):
        """The content tier serves the old bytes, and the path entry moves to
        the new write, so the next lookup is a path hit."""
        filesystem = VirtualFilesystem()
        hasher = ArtifactHasher(filesystem)
        old, new = self._payloads(2)
        for payload in (old, new, old):
            filesystem.advance_clock(1)
            filesystem.add_file(self.PATH, payload, executable=True)
            hashes = hasher.executable_hashes(self.PATH)
        assert hashes.file_hash == str(hasher.hasher.hash(old))
        assert (hasher.hashes_computed, hasher.cache_hits,
                hasher.content_cache_hits) == (2, 0, 1)
        assert hasher._exe_cache[self.PATH][0] == filesystem.get(self.PATH).version
        hasher.executable_hashes(self.PATH)
        assert hasher.cache_hits == 1

    def test_a_rewrite_leaves_other_paths_cached(self):
        filesystem = VirtualFilesystem()
        first, second, third = self._payloads(3)
        filesystem.add_file(self.PATH, first, executable=True)
        filesystem.add_file("/users/bob/tool", second, executable=True)
        hasher = ArtifactHasher(filesystem)
        hasher.executable_hashes(self.PATH)
        hasher.executable_hashes("/users/bob/tool")
        filesystem.add_file(self.PATH, third, executable=True)
        hasher.executable_hashes("/users/bob/tool")
        assert hasher.cache_hits == 1
        assert set(hasher._exe_cache) == {self.PATH, "/users/bob/tool"}

    def test_remove_and_add_back_is_rehashed(self):
        filesystem = VirtualFilesystem()
        old, new = self._payloads(2)
        filesystem.add_file(self.PATH, old, executable=True)
        hasher = ArtifactHasher(filesystem)
        hasher.executable_hashes(self.PATH)
        filesystem.remove(self.PATH)
        filesystem.add_file(self.PATH, new, executable=True)  # same clock tick
        assert hasher.executable_hashes(self.PATH).file_hash == \
            str(hasher.hasher.hash(new))
        assert len(hasher._exe_cache) == 1


class TestListCacheLRU:
    def test_oldest_entry_evicted_once_full(self, app_cluster, monkeypatch):
        monkeypatch.setattr(fuzzy_module, "LIST_CACHE_ENTRIES", 3)
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
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

    def test_recently_used_entry_survives_eviction(self, app_cluster, monkeypatch):
        monkeypatch.setattr(fuzzy_module, "LIST_CACHE_ENTRIES", 2)
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        hasher.list_hash(["a"])
        hasher.list_hash(["b"])
        hasher.list_hash(["a"])         # refresh "a": now "b" is the LRU entry
        hasher.list_hash(["c"])         # evicts "b"
        computed = hasher.hashes_computed
        hasher.list_hash(["a"])
        assert hasher.hashes_computed == computed
        hasher.list_hash(["b"])
        assert hasher.hashes_computed == computed + 1

    def test_cache_never_exceeds_limit(self, app_cluster, monkeypatch):
        monkeypatch.setattr(fuzzy_module, "LIST_CACHE_ENTRIES", 5)
        cluster, _ = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        for index in range(20):
            hasher.list_hash([f"/opt/item{index}"])
        assert len(hasher._list_cache) == 5


class TestNoPerBytePythonAtProcessStart:
    """Count guards (no timing): what a process start may not go back to."""

    def test_cold_executable_hash_is_one_computation(self, app_cluster):
        cluster, _ = app_cluster
        image = SeededRNG(63).bytes(40000)
        cluster.filesystem.add_file("/scratch/never-seen", image, executable=True)
        hasher = ArtifactHasher(cluster.filesystem)
        hashes = hasher.executable_hashes("/scratch/never-seen")
        assert hashes.file_hash == ReferenceHasher().hash(image)
        assert (hasher.hashes_computed, hasher.content_cache_hits) == (1, 0)

    def _fifty_starts_and_ends(self, app_cluster):
        cluster, manifest = app_cluster
        datagrams: list[bytes] = []
        channel = InMemoryChannel()
        channel.subscribe(datagrams.append)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library)
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
        calls: list[str] = []
        real = fuzzy_module.xxh128_hex
        monkeypatch.setattr(fuzzy_module, "xxh128_hex",
                            lambda path: calls.append(path) or real(path))
        bash = app_cluster[1].tool("bash")
        _, datagrams = self._fifty_starts_and_ends(app_cluster)
        assert calls == [bash]
        assert len(datagrams) >= 150
        assert all(UDPMessage.decode(datagram).path_hash == real(bash)
                   for datagram in datagrams)

    def test_send_side_pays_per_process_not_per_datagram(self, app_cluster, monkeypatch):
        """The mirror of ``tests/ingest/test_hot_path_counts.py``: a hook call
        frames its process once and enters the transport once; no
        ``UDPMessage`` and no ``.value`` of ``Layer``/``InfoType`` per datagram."""
        import enum

        import repro.collector.hooks as hooks_module

        _, expected = self._fifty_starts_and_ends(app_cluster)

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
            collector, spied = self._fifty_starts_and_ends(app_cluster)

        assert spied == expected and len(spied) >= 150
        assert len(headers) == len(bursts) == 100            # one per hook call
        assert [header for header, _ in bursts] == [wire_header(*key) for key in headers]
        assert len(set(headers)) == 50                       # start and end share it
        assert value_reads == []
        sections = sum(len(sections) for _, sections in bursts)
        assert sections == collector.sender.messages_sent > 100

    def test_the_path_hash_memo_holds_what_a_fresh_hasher_computes(self, app_cluster):
        cluster, manifest = app_cluster
        hasher = ArtifactHasher(cluster.filesystem)
        expected = hasher.path_hash(manifest.tool("bash"))
        assert hasher._path_hashes == {manifest.tool("bash"): expected}
        assert ArtifactHasher(cluster.filesystem).path_hash(manifest.tool("bash")) == expected

    def test_path_hash_memo_is_bounded_oldest_out(self, app_cluster, monkeypatch):
        monkeypatch.setattr(fuzzy_module, "PATH_HASH_ENTRIES", 3)
        hasher = ArtifactHasher(app_cluster[0].filesystem)
        for index in range(5):
            hasher.path_hash(f"/users/alice/bin/tool{index}")
        assert list(hasher._path_hashes) == [f"/users/alice/bin/tool{index}"
                                             for index in (2, 3, 4)]


class TestOneBatchPerStart:
    """Every digest a process start misses goes to one ``hash_many`` call,
    and the counters still count items, not calls."""

    def test_a_cold_user_start_is_one_batch_and_a_warm_one_none(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        collector = SirenCollector(cluster.filesystem, UDPSender(InMemoryChannel()),
                                   manifest.siren_library)
        hasher = collector.hasher
        batches: list[list[int]] = []
        hash_many = hasher.hasher.hash_many
        hasher.hasher.hash_many = lambda payloads: (
            batches.append([len(data) for data in payloads]) or hash_many(payloads))
        script = JobScript(name="t", modules=("siren", *icon.required_modules), steps=(
            StepSpec(processes=(ProcessSpec(executable=icon.path),)),))
        counters = []
        with mock.patch.object(cluster.runtime, "_hooks", []):
            cluster.register_preload_hook(collector)
            for _ in range(2):
                cluster.run_job("alice", script)
                counters.append((hasher.hashes_computed, hasher.cache_hits,
                                 hasher.content_cache_hits, len(batches)))
        # The executable's three payloads, its image first, and the four
        # lists (objects, modules, compilers, maps).
        assert len(batches) == 1 and len(batches[0]) == 3 + 4
        assert batches[0][0] == len(cluster.filesystem.read(icon.path))
        # Cold: five items computed.  Warm: five hits, nothing hashed.
        assert counters == [(5, 0, 0, 1), (5, 5, 0, 1)]
        assert collector.processes_collected == 2 and collector.section_errors == 0


class TestOneParsePerStart:
    def test_a_cold_user_start_parses_the_image_once(self, app_cluster, monkeypatch):
        """The ``.comment`` strings and the symbol table come from one
        ``ELFFile``, and every section equals its digest computed alone."""
        cluster, manifest = app_cluster
        path = manifest.find_executable("icon", "cray-r1", "alice").path
        image = cluster.filesystem.read(path)
        datagrams: list[bytes] = []
        channel = InMemoryChannel()
        channel.subscribe(datagrams.append)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library)
        parses = []
        post_init = ELFFile.__post_init__
        monkeypatch.setattr(ELFFile, "__post_init__",
                            lambda self: parses.append(self) or post_init(self))
        collector.on_process_start(ProcessContext(
            pid=3000, ppid=1, uid=1000, gid=1000, executable=path, argv=(path,),
            environment={"SLURM_JOB_ID": "79", "SLURM_STEP_ID": "0"},
            hostname="nid000001", start_time=1_733_000_300))
        monkeypatch.undo()
        assert len(parses) == 1 and collector.hasher.hashes_computed >= 1
        sent = {message.info_type: message.content
                for message in map(UDPMessage.decode, datagrams)}
        plain = FuzzyHasher()
        assert sent[InfoType.COMPILERS] == ";".join(ELFFile(image).comment_strings())
        assert sent[InfoType.FILE_H] == plain.hash(image)
        assert sent[InfoType.STRINGS_H] == plain.hash(strings_blob(image).encode())
        assert sent[InfoType.SYMBOLS_H] == plain.hash(nm_listing(ELFFile(image)).encode())
        assert collector.section_errors == 0


class TestCorruptExecutable:
    """An image with the ELF magic but a truncated section header table:
    FILE_H and STRINGS_H need no ELF parse, so only SYMBOLS_H may be lost."""

    @staticmethod
    def _icon_image(app_cluster) -> bytes:
        cluster, manifest = app_cluster
        return cluster.filesystem.read(manifest.find_executable("icon", "cray-r1", "alice").path)

    def test_only_the_symbols_hash_is_lost_and_the_rest_is_cached(self, app_cluster):
        cluster, _ = app_cluster
        image = self._icon_image(app_cluster)
        plain = FuzzyHasher()
        for cut in (64, 1024, len(image) // 2, len(image) - 100):
            content = image[:cut]
            with pytest.raises(ELFError, match="truncated section header"):
                nm_listing(ELFFile(content))
            path = f"/users/alice/bin/cut-{cut}"
            cluster.filesystem.add_file(path, content, executable=True)
            hasher = ArtifactHasher(cluster.filesystem)
            hashes = hasher.executable_hashes(path)
            assert hashes == ExecutableHashes(
                file_hash=str(plain.hash(content)),
                strings_hash=str(plain.hash(strings_blob(content).encode())),
                symbols_hash=None), cut
            assert hasher.executable_hashes(path) is hashes
            assert (hasher.hashes_computed, hasher.cache_hits) == (1, 1)

    def test_the_hook_sends_both_hashes_and_counts_the_loss_once(self, app_cluster):
        cluster, manifest = app_cluster
        image = self._icon_image(app_cluster)
        path = "/users/alice/bin/half-written"
        cluster.filesystem.add_file(path, image[:len(image) // 2], executable=True)
        datagrams: list[bytes] = []
        channel = InMemoryChannel()
        channel.subscribe(datagrams.append)
        collector = SirenCollector(cluster.filesystem, UDPSender(channel),
                                   manifest.siren_library)
        computed = []
        for pid in (3000, 3001):
            collector.on_process_start(ProcessContext(
                pid=pid, ppid=1, uid=1000, gid=1000, executable=path, argv=(path,),
                environment={"SLURM_JOB_ID": "78", "SLURM_STEP_ID": "0"},
                hostname="nid000001", start_time=1_733_000_200))
            computed.append(collector.hasher.hashes_computed)
        sent = [UDPMessage.decode(datagram) for datagram in datagrams]
        hashes = [message.info_type for message in sent if message.pid == 3000
                  and message.info_type in (InfoType.FILE_H, InfoType.STRINGS_H,
                                            InfoType.SYMBOLS_H)]
        assert hashes == [InfoType.FILE_H, InfoType.STRINGS_H]
        assert {message.content for message in sent
                if message.info_type == InfoType.FILE_H} == {
                    str(FuzzyHasher().hash(image[:len(image) // 2]))}
        # Per process: SYMBOLS_H once, and COMPILERS, which parses .comment.
        assert collector.section_errors == 2 * 2
        assert computed[1] == computed[0]          # the second start is all cache hits
        assert not any(message.info_type == InfoType.COMPILERS for message in sent)


def _run_one(cluster, manifest, executable, *, ranks=1, modules=("siren",), argv=None,
             python_script=None, imported_packages=(), mapped_files=()):
    """Helper: run one process through a fresh collector and return its messages."""
    store = MessageStore()
    channel = InMemoryChannel()
    ingest = IncrementalConsolidator(store, persist_raw=True)
    ingest.attach(channel)
    collector = SirenCollector(cluster.filesystem, UDPSender(channel), manifest.siren_library)
    script = JobScript(name="t", modules=tuple(modules), steps=(
        StepSpec(processes=(ProcessSpec(executable=executable, ranks=ranks,
                                        argv=argv or (executable,),
                                        python_script=python_script,
                                        imported_packages=imported_packages,
                                        mapped_files=mapped_files),)),))
    with mock.patch.object(cluster.runtime, "_hooks", []):
        cluster.register_preload_hook(collector)
        cluster.run_job("alice", script)
    ingest.snapshot()  # persists the last raw batch
    return collector, store


class TestSirenCollector:
    def test_user_executable_gets_full_treatment(self, app_cluster):
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        collector, store = _run_one(cluster, manifest, icon.path,
                                    modules=("siren", *icon.required_modules))
        types = {row[7] for row in raw_messages(store)}
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
        types = {row[7] for row in raw_messages(store)}
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
        assert len(raw_messages(store)) == 0

    def test_python_interpreter_script_layer(self, app_cluster):
        cluster, manifest = app_cluster
        script_path = "/users/alice/scripts/pytest_case.py"
        cluster.filesystem.add_file(script_path, b"import numpy\nimport heapq\n")
        interpreter = manifest.interpreter("python3.10")
        _, store = _run_one(cluster, manifest, interpreter,
                            argv=(interpreter, script_path), python_script=script_path)
        layers_types = {(row[6], row[7]) for row in raw_messages(store)}
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
        layers = {row[6] for row in raw_messages(store)}
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
        kinds = [(row[6], row[7], row[8], row[9]) for row in raw_messages(store)]
        assert kinds == [(row[6], row[7], row[8], row[9])
                         for row in raw_messages(absent)]
        assert Layer.SCRIPT.value not in {kind[0] for kind in kinds}

    def test_unframeable_section_does_not_blind_the_rest_of_the_burst(self, app_cluster):
        """Regression: a mapped file named with a 0x1F made MAPS unframeable,
        the sender raised out of the hook at that message and everything
        queued behind it -- MAPS_H and the three fuzzy hashes identification
        rests on -- was never sent.  A file name was enough to evade Table 7."""
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        hook_failures = cluster.runtime.hook_failures
        cluster.filesystem.add_file("/users/alice/data/in\x1fput.dat", b"input deck")
        collector, store = _run_one(cluster, manifest, icon.path,
                                    modules=("siren", *icon.required_modules),
                                    mapped_files=("/users/alice/data/in\x1fput.dat",))
        types = {row[7] for row in raw_messages(store)}
        every = {InfoType.PROCINFO, InfoType.FILEMETA, InfoType.OBJECTS,
                 InfoType.OBJECTS_H, InfoType.MODULES, InfoType.MODULES_H,
                 InfoType.COMPILERS, InfoType.COMPILERS_H, InfoType.MAPS,
                 InfoType.MAPS_H, InfoType.FILE_H, InfoType.STRINGS_H,
                 InfoType.SYMBOLS_H, InfoType.PROCEND}
        assert types == {info_type.value for info_type in every - {InfoType.MAPS}}
        assert collector.processes_collected == 1 and collector.section_errors == 0
        assert collector.sender.send_errors == 1          # counted once, no new counter
        assert cluster.runtime.hook_failures == hook_failures
        (record,) = records_from_messages(store)
        assert record.incomplete == 1 and record.maps == ""
        assert record.maps_h and record.file_h and record.strings_h and record.symbols_h

    @mock.patch.dict(TABLE_1, {ExecutableCategory.USER: (InfoType.FILEMETA, InfoType.MAPS_H)})
    def test_the_collector_sends_what_table_1_lists(self, app_cluster):
        """The collector reads the table at call time, entry by entry: a
        list's hash is sent without the list."""
        cluster, manifest = app_cluster
        icon = manifest.find_executable("icon", "cray-r1", "alice")
        collector, store = _run_one(cluster, manifest, icon.path,
                                    modules=("siren", *icon.required_modules))
        types = {row[7] for row in raw_messages(store)}
        assert types == {"PROCINFO", "FILEMETA", "MAPS_H", "PROCEND"}
        assert collector.section_errors == 0

    def test_header_fields_populated(self, app_cluster):
        cluster, manifest = app_cluster
        _, store = _run_one(cluster, manifest, manifest.tool("bash"))
        row = raw_messages(store)[0]
        jobid, stepid, pid, path_hash, host, time = row[0], row[1], row[2], row[3], row[4], row[5]
        assert jobid and stepid == "0" and pid >= 1000
        assert len(path_hash) == 32
        assert host.startswith("nid")
        assert time > 0
