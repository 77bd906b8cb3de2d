"""Fuzzy hashing of collected artefacts.

SIREN computes SSDeep fuzzy hashes of

* the raw executable file (``FILE_H``),
* its printable strings (``STRINGS_H``),
* its global-scope ELF symbols (``SYMBOLS_H``),
* the Python input script (``SCRIPT_H`` -- stored as the script layer's
  ``FILE_H``), and
* each collected list (modules, compilers, shared objects, memory map), so
  that those remain comparable even when parts are lost in transit.

Hashing an executable is by far the most expensive part of collection, so
:class:`ArtifactHasher` memoises aggressively, in two tiers:

* per ``(path, write version)`` -- re-executing the same unchanged binary
  thousands of times (the common case on an HPC system) costs one hash, not
  thousands, while every rewrite of the path misses, even one that keeps the
  ``mtime`` (a recompile within the same second); executables and scripts
  use *separate* caches so a binary first seen as a script never
  short-circuits the executable hashes (or vice versa);
* per *content* -- a BLAKE2b content key recognises byte-identical binaries
  reached through different paths or writes (the classic renamed ``a.out``),
  so they hash exactly once per campaign.

List hashes are memoised by content in a bounded LRU (the same module and
library lists recur for thousands of processes), and so is the xxHash of the
executable path that every datagram header carries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.elf.reader import ELFFile, is_elf
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing
from repro.hashing.ssdeep import FuzzyHasher
from repro.hashing.xxhash import xxh128_hex
from repro.hpcsim.filesystem import VirtualFilesystem

#: Distinct executable paths whose header hash is kept (oldest out).
PATH_HASH_ENTRIES = 4096


@dataclass(frozen=True)
class ExecutableHashes:
    """The three per-executable fuzzy hashes."""

    file_hash: str
    strings_hash: str
    symbols_hash: str


def _content_key(content: bytes) -> tuple[int, bytes]:
    """Content-addressed cache key: payload length + 128-bit BLAKE2b digest.

    The key lives only in the in-memory dicts of one :class:`ArtifactHasher`
    (nothing persists or ships it), so it is free to be whatever digest the
    C library computes fastest: ~0.06 ms for a 47 KB binary, a few percent of
    the FILE_H + STRINGS_H + SYMBOLS_H pipeline a content hit saves.  A
    collision here would report another binary's hashes, hence 128 bits.
    """
    return len(content), blake2b(content, digest_size=16).digest()


@dataclass
class ArtifactHasher:
    """Compute (and cache) the fuzzy hashes the collector needs."""

    filesystem: VirtualFilesystem
    hasher: FuzzyHasher = field(default_factory=FuzzyHasher)
    cache_enabled: bool = True
    #: Fanned out to :meth:`FuzzyHasher.hash_many` for the three per-executable
    #: payloads; > 1 engages a process pool (multi-core hosts only).
    hash_concurrency: int = 1
    list_cache_limit: int = 100_000
    hashes_computed: int = 0
    cache_hits: int = 0
    content_cache_hits: int = 0
    _exe_cache: dict[tuple[str, int], ExecutableHashes] = field(default_factory=dict)
    _script_cache: dict[tuple[str, int], str] = field(default_factory=dict)
    _exe_content_cache: dict[tuple[int, bytes], ExecutableHashes] = field(default_factory=dict)
    _script_content_cache: dict[tuple[int, bytes], str] = field(default_factory=dict)
    _list_cache: OrderedDict[str, str] = field(default_factory=OrderedDict)
    _path_hashes: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # executables
    # ------------------------------------------------------------------ #
    def executable_hashes(self, path: str) -> ExecutableHashes:
        """FILE_H / STRINGS_H / SYMBOLS_H for the executable at ``path``."""
        vfile = self.filesystem.get(path)
        key = (path, vfile.version)
        if self.cache_enabled:
            cached = self._exe_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached

        content = vfile.content
        ckey = _content_key(content) if self.cache_enabled else None
        if ckey is not None:
            cached = self._exe_content_cache.get(ckey)
            if cached is not None:
                self.content_cache_hits += 1
                self._exe_cache[key] = cached
                return cached

        payloads = [content, strings_blob(content).encode("utf-8")]
        if is_elf(content):
            payloads.append(nm_listing(ELFFile(content)).encode("utf-8"))
        else:
            payloads.append(b"")
        digests = self.hasher.hash_many(payloads, concurrency=self.hash_concurrency)
        result = ExecutableHashes(file_hash=str(digests[0]),
                                  strings_hash=str(digests[1]),
                                  symbols_hash=str(digests[2]))
        self.hashes_computed += 1
        if ckey is not None:
            self._exe_cache[key] = result
            self._exe_content_cache[ckey] = result
        return result

    def script_hash(self, path: str) -> str:
        """Fuzzy hash of a (Python) script file."""
        vfile = self.filesystem.get(path)
        key = (path, vfile.version)
        if self.cache_enabled:
            cached = self._script_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached

        content = vfile.content
        ckey = _content_key(content) if self.cache_enabled else None
        if ckey is not None:
            cached = self._script_content_cache.get(ckey)
            if cached is None:
                # A script byte-identical to an already-hashed executable can
                # reuse its FILE_H (the script digest is the raw-file hash).
                executable = self._exe_content_cache.get(ckey)
                cached = executable.file_hash if executable is not None else None
            if cached is not None:
                self.content_cache_hits += 1
                self._script_cache[key] = cached
                return cached

        digest = str(self.hasher.hash(content))
        self.hashes_computed += 1
        if ckey is not None:
            self._script_cache[key] = digest
            self._script_content_cache[ckey] = digest
        return digest

    # ------------------------------------------------------------------ #
    # lists
    # ------------------------------------------------------------------ #
    def list_hash(self, items: list[str] | str) -> str:
        """Fuzzy hash of a collected list (modules, objects, compilers, maps).

        The same list contents recur for thousands of processes (every ``bash``
        in the same environment loads the same objects), so results are
        memoised by content in an LRU bounded at :attr:`list_cache_limit`
        entries -- once full, the least recently used entry is evicted.
        """
        text = items if isinstance(items, str) else "\n".join(items)
        if self.cache_enabled:
            cached = self._list_cache.get(text)
            if cached is not None:
                self.cache_hits += 1
                self._list_cache.move_to_end(text)
                return cached
        digest = str(self.hasher.hash_text(text))
        self.hashes_computed += 1
        if self.cache_enabled:
            self._list_cache[text] = digest
            if len(self._list_cache) > self.list_cache_limit:
                self._list_cache.popitem(last=False)
        return digest

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def path_hash(self, path: str) -> str:
        """``xxh128_hex(path)``, the executable-path hash of a datagram header.

        Every process start, end and script layer asks for it, over a few
        hundred distinct paths, and the xxHash is two pure-Python passes.
        """
        cached = self._path_hashes.get(path)
        if cached is None:
            cached = xxh128_hex(path)
            if self.cache_enabled:
                if len(self._path_hashes) >= PATH_HASH_ENTRIES:
                    del self._path_hashes[next(iter(self._path_hashes))]
                self._path_hashes[path] = cached
        return cached

    def clear_cache(self) -> None:
        """Drop all memoisation tiers."""
        self._exe_cache.clear()
        self._script_cache.clear()
        self._exe_content_cache.clear()
        self._script_content_cache.clear()
        self._list_cache.clear()
        self._path_hashes.clear()

    def close(self) -> None:
        """Release hashing resources (the ``hash_many`` process pool).

        Caches survive; hashing keeps working afterwards (a later concurrent
        batch simply respawns the pool).
        """
        self.hasher.close()
