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

* per path, remembering the write version it hashed -- re-executing the
  same unchanged binary thousands of times (the common case on an HPC
  system) costs one hash, not thousands, while every rewrite of the path
  misses, even one that keeps the ``mtime`` (a recompile within the same
  second), and replaces the path's entry; executables and scripts use
  *separate* caches so a binary first seen as a script never
  short-circuits the executable hashes (or vice versa);
* per *content* -- a BLAKE2b content key recognises byte-identical binaries
  reached through different paths or writes (the classic renamed ``a.out``),
  so they hash exactly once per campaign.

List hashes are memoised by content in an LRU of :data:`LIST_CACHE_ENTRIES`
(the same module and library lists recur for thousands of processes), and
the xxHash of the executable path that every datagram header carries in a
memo of :data:`PATH_HASH_ENTRIES`.  Every tier is always on.

A process start asks once: :meth:`ArtifactHasher.start_hashes` takes every
list, the executable and the script the start needs a digest of, answers
what it can from the tiers and hashes all the misses in one
:meth:`~repro.hashing.ssdeep.FuzzyHasher.hash_many` batch, so a freshly
built binary pays the engine's fixed cost once, not once per digest.
``executable_hashes``, ``script_hash`` and ``list_hash`` are its one-item
cases.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator, Sequence
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any

from repro.elf.reader import ELFFile, is_elf
from repro.elf.strings import strings_blob
from repro.elf.symbols import nm_listing
from repro.hashing.ssdeep import FuzzyHasher
from repro.hashing.xxhash import xxh128_hex
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.util.errors import ELFError

#: Distinct executable paths whose header hash is kept (oldest out).
PATH_HASH_ENTRIES = 4096
#: Distinct collected lists whose fuzzy hash is kept (least recently used out).
LIST_CACHE_ENTRIES = 100_000


@dataclass(frozen=True)
class ExecutableHashes:
    """The three per-executable fuzzy hashes.

    ``symbols_hash`` is ``None`` when the image carries the ELF magic but its
    symbol table cannot be parsed (a truncated or corrupt file): the other
    two hashes need no ELF parse and are still valid.
    """

    file_hash: str
    strings_hash: str
    symbols_hash: str | None


@dataclass(frozen=True)
class StartHashes:
    """What :meth:`ArtifactHasher.start_hashes` answers, item by item.

    An item is ``None`` when it was not asked for, and the exception it
    raised when it could not be made; :func:`result_of` turns an item back
    into its value or raises that exception.
    """

    lists: list[str | Exception]
    executable: ExecutableHashes | Exception | None
    script: str | Exception | None


def result_of(item):
    """The value of a :class:`StartHashes` item; raises the exception it failed with."""
    if isinstance(item, Exception):
        raise item
    return item


#: A cache step: yields the payloads it misses on once, receives their
#: digests, and returns the item's answer.
_Step = Generator[list[bytes], list[str], Any]


def _advance(answers: list[Any], index: int, step: _Step, digests: list[str] | None):
    """Run ``step`` to its payload request (returned) or its answer (kept)."""
    try:
        return step.send(digests)
    except StopIteration as done:
        answers[index] = done.value
    except Exception as error:  # noqa: BLE001 - one item's failure is its answer
        answers[index] = error
    return None


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
    hashes_computed: int = field(init=False, default=0)
    cache_hits: int = field(init=False, default=0)
    content_cache_hits: int = field(init=False, default=0)
    #: path -> (write version, result): the path tier
    _exe_cache: dict[str, tuple[int, ExecutableHashes]] = field(
        init=False, default_factory=dict)
    _script_cache: dict[str, tuple[int, str]] = field(init=False, default_factory=dict)
    _exe_content_cache: dict[tuple[int, bytes], ExecutableHashes] = field(
        init=False, default_factory=dict)
    _script_content_cache: dict[tuple[int, bytes], str] = field(
        init=False, default_factory=dict)
    _list_cache: OrderedDict[str, str] = field(init=False, default_factory=OrderedDict)
    _path_hashes: dict[str, str] = field(init=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    # one process start
    # ------------------------------------------------------------------ #
    def start_hashes(self, lists: Sequence[str] = (), executable: str | None = None,
                     script: str | None = None, image: ELFFile | None = None) -> StartHashes:
        """Every digest one process start needs; whatever misses is hashed in one batch.

        ``lists`` are collected lists' texts, ``executable`` and ``script``
        paths (``None``: not needed).  Each item is looked up in the cache
        tiers of its kind and counted once, in ``hashes_computed``,
        ``cache_hits`` or ``content_cache_hits``; every payload the items
        miss on goes to one :meth:`FuzzyHasher.hash_many` call.  An item that
        fails -- its file cannot be read, say -- comes back as the exception
        it raised, and the other items are still answered.  ``image`` is the
        caller's ELF parse of the executable, if it made one: a miss reads
        the symbol table from it instead of parsing the image again.
        """
        steps = [None if executable is None else self._executable_step(executable, image),
                 None if script is None else self._script_step(script),
                 *map(self._list_step, lists)]
        answers: list[Any] = [None] * len(steps)
        waiting: list[tuple[int, int, int]] = []    # (step, first payload, payloads)
        payloads: list[bytes] = []
        for index, step in enumerate(steps):
            if step is not None and (wanted := _advance(answers, index, step, None)):
                waiting.append((index, len(payloads), len(wanted)))
                payloads.extend(wanted)
        if waiting:
            try:
                digests = self.hasher.hash_many(payloads)
            except Exception as error:  # noqa: BLE001 - each item's failure is its answer
                for index, _, _ in waiting:
                    answers[index] = error
            else:
                for index, first, count in waiting:
                    _advance(answers, index, steps[index], digests[first:first + count])
        executable_hashes, script_hash, *list_hashes = answers
        return StartHashes(list_hashes, executable_hashes, script_hash)

    def executable_hashes(self, path: str) -> ExecutableHashes:
        """FILE_H / STRINGS_H / SYMBOLS_H for the executable at ``path``."""
        return result_of(self.start_hashes(executable=path).executable)

    def script_hash(self, path: str) -> str:
        """Fuzzy hash of a (Python) script file."""
        return result_of(self.start_hashes(script=path).script)

    def list_hash(self, items: list[str] | str) -> str:
        """Fuzzy hash of a collected list (modules, objects, compilers, maps)."""
        text = items if isinstance(items, str) else "\n".join(items)
        return result_of(self.start_hashes([text]).lists[0])

    # -- the steps: each looks its item up, or asks for payloads ---------- #
    def _executable_step(self, path: str, image: ELFFile | None) -> _Step:
        vfile = self.filesystem.get(path)
        version = vfile.version
        entry = self._exe_cache.get(path)
        if entry is not None and entry[0] == version:
            self.cache_hits += 1
            return entry[1]

        content = vfile.content
        ckey = _content_key(content)
        cached = self._exe_content_cache.get(ckey)
        if cached is not None:
            self.content_cache_hits += 1
            self._exe_cache[path] = (version, cached)
            return cached

        strings = strings_blob(content).encode("utf-8")
        try:
            if image is None or image.data is not content:
                image = ELFFile(content) if is_elf(content) else None
            symbols = [b"" if image is None else nm_listing(image).encode("utf-8")]
        except ELFError:
            symbols = []                   # an unparseable symbol table: no SYMBOLS_H
        file_hash, strings_hash, *symbols_hash = yield [content, strings, *symbols]
        result = ExecutableHashes(file_hash=file_hash, strings_hash=strings_hash,
                                  symbols_hash=symbols_hash[0] if symbols_hash else None)
        self.hashes_computed += 1
        self._exe_cache[path] = (version, result)
        self._exe_content_cache[ckey] = result
        return result

    def _script_step(self, path: str) -> _Step:
        vfile = self.filesystem.get(path)
        version = vfile.version
        entry = self._script_cache.get(path)
        if entry is not None and entry[0] == version:
            self.cache_hits += 1
            return entry[1]

        content = vfile.content
        ckey = _content_key(content)
        cached = self._script_content_cache.get(ckey)
        if cached is None:
            # A script byte-identical to an already-hashed executable can
            # reuse its FILE_H (the script digest is the raw-file hash).
            executable = self._exe_content_cache.get(ckey)
            cached = executable.file_hash if executable is not None else None
        if cached is not None:
            self.content_cache_hits += 1
            self._script_cache[path] = (version, cached)
            return cached

        (digest,) = yield [content]
        self.hashes_computed += 1
        self._script_cache[path] = (version, digest)
        self._script_content_cache[ckey] = digest
        return digest

    def _list_step(self, text: str) -> _Step:
        # The same list contents recur for thousands of processes (every
        # ``bash`` in the same environment loads the same objects), so
        # results are memoised by content in an LRU bounded at
        # LIST_CACHE_ENTRIES entries: once full, the least recently used
        # entry is evicted.
        cached = self._list_cache.get(text)
        if cached is not None:
            self.cache_hits += 1
            self._list_cache.move_to_end(text)
            return cached
        (digest,) = yield [text.encode("utf-8")]
        self.hashes_computed += 1
        self._list_cache[text] = digest
        if len(self._list_cache) > LIST_CACHE_ENTRIES:
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
            if len(self._path_hashes) >= PATH_HASH_ENTRIES:
                del self._path_hashes[next(iter(self._path_hashes))]
            self._path_hashes[path] = cached
        return cached
