"""Tiered record store: bronze datagrams -> silver records -> gold rollups.

The per-campaign ``processes`` table answers every paper-facing question by
re-scanning all records -- O(records) per query, which collapses under the
roadmap's fleet-scale north star.  This module layers the classic
bronze/silver/gold tiering on top of the existing store:

* **bronze** -- the raw datagram/message tier.  Already present: the
  ``messages`` table of the attached :class:`~repro.db.store.MessageStore`
  (kept or cleared per ``keep_raw_messages``); the tiered store does not
  duplicate it.
* **silver** -- consolidated :class:`~repro.db.store.ProcessRecord` rows in
  ``shards`` hash-partitioned shards (the same FNV-1a-32 key hash the
  streaming front uses in :func:`~repro.ingest.shard.shard_of_datagram`, so
  a record's shard is stable across runs and processes).  Heavy payload
  columns (shared-object lists, module lists, memory maps, ...) are
  replaced by FNV-1a-64 content digests referencing a shared blob table --
  the content-addressed scheme of the collector's digest cache -- so two
  campaigns observing the same binaries store each payload once
  (cross-campaign dedup).  Every digest write is verified against the
  stored content; a 64-bit collision raises :class:`StoreError` instead of
  silently corrupting a record.  The same few hundred binaries are
  launched thousands of times, so the store hashes each distinct column
  value once: a bounded ``content -> digest`` memo answers a blob this
  store instance has already written and verified (a hit is content
  *equality*, never digest equality), and a record's digest is composed
  from its columns' digests (:func:`record_digest`) instead of re-reading
  their bytes.
* **gold** -- one :class:`~repro.analysis.rollup.TableRollup` per campaign,
  the accumulator :class:`~repro.analysis.live.LiveAnalysis` also folds
  into, fed the same record deltas (the store's ``load_processes_since``
  stream).  It answers the four paper tables (Tables 2, 3, 4 and 8) in
  O(answer) -- query cost depends on the number of *groups* in the answer,
  never on the record count -- with rows byte-identical to the
  :mod:`repro.analysis.stats` recompute over key-sorted records.

Idempotence mirrors the store's upsert semantics: re-delivering a record
whose content digest is unchanged is a dedup no-op (the tiered analogue of
``INSERT OR IGNORE``); a *changed* record under a known key (batch
re-consolidation rebuilding a row from more messages, the ``INSERT OR
REPLACE`` path) appends a superseding silver version and marks the
campaign's gold dirty -- the next query rebuilds it from silver, so answers
never go stale.  :meth:`TieredStore.compact` rewrites the shards down to
the latest version per key and garbage-collects unreferenced blobs;
compaction is idempotent and answer-preserving.

The storage substrate sits behind the tiny :class:`StoreBackend` protocol
(:class:`SqliteBackend` for durable/on-disk stores, :class:`MemoryBackend`
for tests and throwaway runs); campaigns and frameworks pick it with the
``store_backend`` knob and opt into the whole tier with ``rollups``.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator, Protocol

from repro.analysis.rollup import TableRollup
from repro.analysis.stats import (
    PythonInterpreterRow,
    SharedObjectVariantRow,
    SystemExecutableRow,
    UserActivityRow,
)
from repro.db.store import PROCESS_FIELDS, ProcessRecord, process_row
from repro.hashing.fnv import (FNV64_OFFSET, FNV64_PRIME, fnv1a_32,
                               fnv1a_32_many, fnv1a_64)
from repro.util.errors import StoreError

#: Default silver shard count (matches the default sharded-ingest width).
DEFAULT_SHARDS = 4

#: Heavy payload columns replaced by blob digests in silver rows.  The short
#: digest columns (``*_h``) and scalar header fields stay inline.
DEDUP_FIELDS = ("file_metadata", "modules", "objects", "compilers", "maps",
                "script_meta", "python_packages")

#: Per column, in field order: is it a ``str`` column (the rest are ``int``
#: or ``int | None``), and is it one of the blob columns; then where those are.
_TEXT_COLUMNS = tuple(field.type in ("str", str) for field in fields(ProcessRecord))
_BLOB_COLUMNS = tuple(name in DEDUP_FIELDS for name in PROCESS_FIELDS)
_BLOB_INDICES = tuple(map(PROCESS_FIELDS.index, DEDUP_FIELDS))
_ROW_KEY = itemgetter(*map(PROCESS_FIELDS.index,
                           ("jobid", "stepid", "pid", "hash", "host", "time")))

#: The silver payload is ``json.dumps(..., sort_keys=True)`` of ``{"blobs":
#: {column: str(blob digest)}, "campaign": label, "digest": str(record
#: digest), "fields": {column: value}}``.  Its key order is therefore fixed,
#: so it is written as one ``%``-format over the record's row followed by
#: the campaign and the digest (the two cells :data:`_PAYLOAD_CELLS` reads
#: past the row's end).
_BLOB_ORDER = sorted(DEDUP_FIELDS)
_INLINE_ORDER = sorted(set(PROCESS_FIELDS) - set(DEDUP_FIELDS))
_PAYLOAD_TEMPLATE = (
    '{"blobs": {' + ", ".join(f'"{name}": "%s"' for name in _BLOB_ORDER)
    + '}, "campaign": %s, "digest": "%s", "fields": {'
    + ", ".join(f'"{name}": %s' for name in _INLINE_ORDER) + "}}")
_PAYLOAD_CELLS = itemgetter(
    *map(PROCESS_FIELDS.index, _BLOB_ORDER), len(PROCESS_FIELDS),
    len(PROCESS_FIELDS) + 1, *map(PROCESS_FIELDS.index, _INLINE_ORDER))

#: Name of the record-digest composition, pinned in backend meta next to
#: ``shards``: stored digests decide "unchanged, skip" vs "changed,
#: supersede", so digests of another scheme must never be compared with
#: these.
DIGEST_SCHEME = "fnv1a64-column-words-v1"

#: Entry cap of each per-store ``content -> digest`` memo (oldest out).  A
#: machine runs a few hundred distinct binaries; every heavy column value
#: past the cap just pays the hash and the backend read again.
MEMO_ENTRIES = 4096

_MASK64 = 0xFFFFFFFFFFFFFFFF


def record_key(record: ProcessRecord) -> str:
    """The canonical process-key string (the sharding + identity key).

    Byte-for-byte the header slice
    :func:`~repro.ingest.shard.shard_of_datagram` hashes, so a record lands
    on the same shard index the streaming front routed its datagrams to.
    """
    return "\x1f".join(map(str, record.key))


def _remember(memo: dict, content: str, value: object) -> None:
    """Add one memo entry, evicting the oldest at :data:`MEMO_ENTRIES`."""
    if len(memo) >= MEMO_ENTRIES:
        del memo[next(iter(memo))]
    memo[content] = value


def record_digest(record: ProcessRecord) -> int:
    """Content digest over every field of ``record``, composed per column.

    An FNV-1a-64 fold (xor, then multiply by the FNV prime) over one 64-bit
    word per column, in dataclass field order: a string column contributes
    the FNV-1a-64 digest of its UTF-8 bytes -- for the ``DEDUP_FIELDS``
    that is the blob digest -- ``None`` contributes ``0`` and an integer
    ``n`` contributes ``2n + 1``, so ``None``, ``0`` and ``""`` all differ.
    Two records with equal digests are treated as identical content; the
    blob layer's collision check makes the same assumption explicit and
    loud for the payload columns.  This function is the definition; the
    store computes the same value through its per-store digest memo.
    """
    state = FNV64_OFFSET
    for value in process_row(record):
        if isinstance(value, str):
            word = fnv1a_64(value.encode("utf-8"))
        elif value is None:
            word = 0
        else:
            word = 2 * value + 1
        state = ((state ^ word) * FNV64_PRIME) & _MASK64
    return state


def shard_of_key(key: str, shards: int) -> int:
    """Deterministic silver shard index for a process-key string."""
    return fnv1a_32(key.encode("utf-8")) % shards


# --------------------------------------------------------------------------- #
# backend seam
# --------------------------------------------------------------------------- #
class StoreBackend(Protocol):
    """Minimal storage contract behind the tiered store.

    A backend stores three things and understands none of them: silver
    *rows* (append-only ``(key, payload)`` string pairs per shard, rewritten
    wholesale by compaction), content *blobs* keyed by a 64-bit digest, and
    a small *meta* key/value table (shard-count pinning).  All tier
    semantics -- versioning, dedup, rollups, collision checks -- live in
    :class:`TieredStore`, so a new backend (an object store, a client to a
    real database server) only implements this protocol.
    """

    def append_rows(self, rows: dict[int, list[tuple[str, str]]],
                    blobs: list[tuple[int, str]]) -> None:
        """Append each shard's ``(key, payload)`` rows in order, and store
        the ``(digest, content)`` blobs they reference (a present digest is
        left as it is) -- all of it or, if it raises, none of it."""
        ...

    def iter_rows(self, shard: int) -> Iterator[tuple[str, str]]:
        """Yield ``shard``'s rows in append order."""
        ...

    def replace_rows(self, shard: int, rows: list[tuple[str, str]]) -> None:
        """Atomically replace ``shard``'s rows (compaction/retention)."""
        ...

    def row_count(self, shard: int) -> int:
        """Number of rows currently in ``shard``."""
        ...

    def get_blob(self, digest: int) -> str | None:
        """The content stored under ``digest``, or ``None``."""
        ...

    def blob_count(self) -> int:
        """Number of distinct blobs stored."""
        ...

    def delete_blobs(self, digests: Iterable[int]) -> None:
        """Drop the named blobs (compaction garbage collection)."""
        ...

    def get_meta(self, name: str) -> str | None:
        """Read one meta value, or ``None``."""
        ...

    def set_meta(self, name: str, value: str) -> None:
        """Write one meta value."""
        ...

    def close(self) -> None:
        """Release backend resources."""
        ...


class MemoryBackend:
    """In-memory :class:`StoreBackend`: plain dicts and lists."""

    def __init__(self) -> None:
        self._shards: dict[int, list[tuple[str, str]]] = {}
        self._blobs: dict[int, str] = {}
        self._meta: dict[str, str] = {}

    def append_rows(self, rows: dict[int, list[tuple[str, str]]],
                    blobs: list[tuple[int, str]]) -> None:
        for digest, content in blobs:
            self._blobs.setdefault(digest, content)
        for shard, batch in rows.items():
            self._shards.setdefault(shard, []).extend(batch)

    def iter_rows(self, shard: int) -> Iterator[tuple[str, str]]:
        yield from self._shards.get(shard, [])

    def replace_rows(self, shard: int, rows: list[tuple[str, str]]) -> None:
        self._shards[shard] = list(rows)

    def row_count(self, shard: int) -> int:
        return len(self._shards.get(shard, []))

    def get_blob(self, digest: int) -> str | None:
        return self._blobs.get(digest)

    def blob_count(self) -> int:
        return len(self._blobs)

    def delete_blobs(self, digests: Iterable[int]) -> None:
        for digest in digests:
            self._blobs.pop(digest, None)

    def get_meta(self, name: str) -> str | None:
        return self._meta.get(name)

    def set_meta(self, name: str, value: str) -> None:
        self._meta[name] = value

    def close(self) -> None:
        self._shards.clear()
        self._blobs.clear()


class SqliteBackend:
    """SQLite :class:`StoreBackend`: one shard table per silver partition.

    ``":memory:"`` (the default) keeps everything in RAM with durability
    traded for speed, matching :class:`~repro.db.store.MessageStore`'s
    pragma choices; an on-disk path runs in WAL mode and survives reopen
    (the tiered store rebuilds its in-memory state from the silver scan).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self.connection = sqlite3.connect(path)
        if path == ":memory:":
            self.connection.execute("PRAGMA synchronous=OFF")
            self.connection.execute("PRAGMA journal_mode=MEMORY")
        else:
            self.connection.execute("PRAGMA journal_mode=WAL")
            self.connection.execute("PRAGMA synchronous=NORMAL")
        with self.connection:
            self.connection.execute(
                "CREATE TABLE IF NOT EXISTS tier_blobs ("
                "digest INTEGER PRIMARY KEY, content TEXT NOT NULL)")
            self.connection.execute(
                "CREATE TABLE IF NOT EXISTS tier_meta ("
                "name TEXT PRIMARY KEY, value TEXT NOT NULL)")
        self._known_shards: set[int] = {
            int(row[0].rsplit("_", 1)[1]) for row in self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
                " AND name LIKE 'silver_%'")
        }

    def _ensure_shard(self, shard: int) -> str:
        table = f"silver_{shard}"
        if shard not in self._known_shards:
            with self.connection:
                self.connection.execute(
                    f"CREATE TABLE IF NOT EXISTS {table} ("
                    "seq INTEGER PRIMARY KEY AUTOINCREMENT, "
                    "key TEXT NOT NULL, payload TEXT NOT NULL)")
            self._known_shards.add(shard)
        return table

    def append_rows(self, rows: dict[int, list[tuple[str, str]]],
                    blobs: list[tuple[int, str]]) -> None:
        batches = [(self._ensure_shard(shard), batch)
                   for shard, batch in sorted(rows.items())]
        with self.connection:
            self.connection.executemany(
                "INSERT OR IGNORE INTO tier_blobs (digest, content)"
                " VALUES (?, ?)",
                [(_signed(digest), content) for digest, content in blobs])
            for table, batch in batches:
                self.connection.executemany(
                    f"INSERT INTO {table} (key, payload) VALUES (?, ?)", batch)

    def iter_rows(self, shard: int) -> Iterator[tuple[str, str]]:
        table = self._ensure_shard(shard)
        cursor = self.connection.execute(
            f"SELECT key, payload FROM {table} ORDER BY seq")
        while batch := cursor.fetchmany(1024):
            yield from batch

    def replace_rows(self, shard: int, rows: list[tuple[str, str]]) -> None:
        table = self._ensure_shard(shard)
        with self.connection:
            self.connection.execute(f"DELETE FROM {table}")
            self.connection.executemany(
                f"INSERT INTO {table} (key, payload) VALUES (?, ?)", rows)

    def row_count(self, shard: int) -> int:
        table = self._ensure_shard(shard)
        return int(self.connection.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0])

    def get_blob(self, digest: int) -> str | None:
        row = self.connection.execute(
            "SELECT content FROM tier_blobs WHERE digest = ?",
            (_signed(digest),)).fetchone()
        return None if row is None else str(row[0])

    def blob_count(self) -> int:
        return int(self.connection.execute(
            "SELECT COUNT(*) FROM tier_blobs").fetchone()[0])

    def delete_blobs(self, digests: Iterable[int]) -> None:
        with self.connection:
            self.connection.executemany(
                "DELETE FROM tier_blobs WHERE digest = ?",
                [(_signed(digest),) for digest in digests])

    def get_meta(self, name: str) -> str | None:
        row = self.connection.execute(
            "SELECT value FROM tier_meta WHERE name = ?", (name,)).fetchone()
        return None if row is None else str(row[0])

    def set_meta(self, name: str, value: str) -> None:
        with self.connection:
            self.connection.execute(
                "INSERT OR REPLACE INTO tier_meta (name, value) VALUES (?, ?)",
                (name, value))

    def close(self) -> None:
        self.connection.close()


def _signed(digest: int) -> int:
    """Map an unsigned 64-bit digest into SQLite's signed INTEGER range."""
    return digest - 0x10000000000000000 if digest >= 0x8000000000000000 else digest


# --------------------------------------------------------------------------- #
# the tiered store
# --------------------------------------------------------------------------- #
class TieredStore:
    """Partitioned silver record tier + incrementally maintained gold rollups.

    Parameters
    ----------
    backend:
        The :class:`StoreBackend` substrate (default: a fresh
        :class:`MemoryBackend`).  Reopening a backend that already holds
        silver rows rebuilds the in-memory version map and gold rollups
        from one silver scan (counted in ``rollup_rebuilds``).
    shards:
        Silver partition count.  Pinned in backend meta on first use; a
        mismatched reopen raises :class:`StoreError` (rows would land on
        the wrong partitions).  :data:`DIGEST_SCHEME` is pinned beside it:
        a backend whose silver rows carry digests of another scheme is
        refused, because every re-delivered record would read as changed.
    campaign:
        Default campaign label of :meth:`ingest_records`.  One backend can
        hold many campaigns; blobs are shared across all of them, silver
        rows and gold rollups are per campaign.
    user_names:
        UID -> anonymised-label mapping baked into the Table 2/3/8 user
        dimensions; must not change after records are ingested.
    """

    def __init__(self, backend: StoreBackend | None = None, *,
                 shards: int = DEFAULT_SHARDS, campaign: str = "campaign",
                 user_names: dict[int, str] | None = None) -> None:
        if shards < 1:
            raise StoreError(f"tiered store needs shards >= 1, got {shards}")
        self.backend: StoreBackend = MemoryBackend() if backend is None else backend
        self.campaign = campaign
        self.user_names = dict(user_names or {})
        pinned = self.backend.get_meta("shards")
        if pinned is None:
            self.backend.set_meta("shards", str(shards))
        elif int(pinned) != shards:
            raise StoreError(
                f"backend was partitioned into {pinned} silver shards; "
                f"reopening it with shards={shards} would misroute records")
        self.shards = shards
        has_rows = any(self.backend.row_count(shard) for shard in range(shards))
        scheme = self.backend.get_meta("digest_scheme")
        if scheme is None and not has_rows:
            self.backend.set_meta("digest_scheme", DIGEST_SCHEME)
        elif scheme != DIGEST_SCHEME:
            raise StoreError(
                f"backend's silver rows carry record digests of scheme "
                f"{scheme or 'unmarked'!r}, this store writes "
                f"{DIGEST_SCHEME!r}: every re-delivered record would append "
                "a superseding version.  Re-attach instead: attach a fresh "
                "tier backend to the MessageStore (attach_tiered replays "
                "`processes`)")
        #: Operational counters (every key is declared in
        #: :data:`repro.util.counters.COUNTERS`; the ``rollups`` lint family
        #: checks each increment site below against the registry).
        self.counters: dict[str, int] = {
            "blob_dedup_hits": 0,
            "blobs_collected": 0,
            "compaction_dropped": 0,
            "compactions": 0,
            "retention_dropped": 0,
            "rollup_dedup_skips": 0,
            "rollup_query_hits": 0,
            "rollup_query_misses": 0,
            "rollup_rebuilds": 0,
            "rollup_records_applied": 0,
            "rollup_syncs": 0,
        }
        #: key string -> (content digest, campaign) of the latest version.
        self._versions: dict[str, tuple[int, str]] = {}
        #: live record count per campaign, maintained incrementally so
        #: :meth:`campaigns` / :meth:`record_count` -- and therefore every
        #: default-campaign gold query -- stay O(campaigns), not O(records).
        self._campaign_counts: dict[str, int] = {}
        self._gold: dict[str, TableRollup] = {}
        self._dirty: set[str] = set()
        #: string column value -> its FNV-1a-64 digest (a pure-function
        #: memo: bounded, never stale).
        self._digests: dict[str, int] = {}
        #: blob content -> digest, only for content this instance has
        #: written to (or found in) the backend and compared equal; cleared
        #: whenever blobs are deleted.
        self._stored_blobs: dict[str, int] = {}
        #: inline string column value -> its JSON text (bounded likewise).
        self._fragments: dict[str, str] = {}
        if has_rows:
            self._rebuild()

    # ------------------------------------------------------------------ #
    # silver ingest
    # ------------------------------------------------------------------ #
    def ingest_records(self, records: Iterable[ProcessRecord], *,
                       campaign: str | None = None) -> int:
        """Fold a batch of finalized records into silver + gold.

        Idempotent per ``(key, content)``: re-delivered unchanged records
        are dedup no-ops; a changed record under a known key appends a
        superseding silver version and marks the owning campaign's gold
        dirty for a lazy rebuild.  Returns how many versions were appended.

        Written before it is believed: the batch's rows and new blobs reach
        the backend in one transaction, and only after it commits do the
        version map, the gold rollups, the verified-blob memo and the
        counters learn of them -- a batch whose write raises leaves this
        store exactly as it was, so delivering it again stores it.
        """
        label = self.campaign if campaign is None else campaign
        versions = self._versions
        digest_of, fragment_of = self._digests.get, self._fragments.get
        stored = self._stored_blobs
        label_cell = fragment_of(label) or self._fragment(label)
        #: per appended version, in batch order: key, payload, the version,
        #: the version it follows, the record
        staged: list[tuple[str, str, tuple[int, str], tuple[int, str] | None,
                           ProcessRecord]] = []
        #: key -> version staged earlier in this batch
        overlay: dict[str, tuple[int, str]] = {}
        #: content -> digest of the blobs this batch verified or will write
        verified: dict[str, int] = {}
        writes: dict[int, str] = {}
        blob_hits = skips = 0
        for record in records:
            row = process_row(record)
            state = FNV64_OFFSET
            cells: list[object] = []
            for value, is_text, is_blob in zip(row, _TEXT_COLUMNS, _BLOB_COLUMNS):
                if is_text:
                    word = digest_of(value)
                    if word is None:
                        word = self._text_word(value)
                    if is_blob:
                        cells.append(word)
                    else:
                        cells.append(fragment_of(value) or self._fragment(value))
                elif value is None:
                    word = 0
                    cells.append("null")
                else:
                    word = 2 * value + 1
                    cells.append(value)
                state = ((state ^ word) * FNV64_PRIME) & _MASK64
            key = "\x1f".join(map(str, _ROW_KEY(row)))
            previous = overlay.get(key) or versions.get(key)
            if previous is not None and previous[0] == state and previous[1] == label:
                skips += 1
                continue
            for index in _BLOB_INDICES:
                content = row[index]
                if content in stored or content in verified:
                    blob_hits += 1
                else:
                    blob_hits += self._stage_blob(content, cells[index],
                                                  verified, writes)
            cells.append(label_cell)
            cells.append(state)
            payload = _PAYLOAD_TEMPLATE % _PAYLOAD_CELLS(cells)
            overlay[key] = version = (state, label)
            staged.append((key, payload, version, previous, record))

        if staged:
            rows: dict[int, list[tuple[str, str]]] = {}
            hashes = fnv1a_32_many([entry[0].encode("utf-8") for entry in staged])
            for entry, hashed in zip(staged, hashes):
                rows.setdefault(hashed % self.shards, []).append(entry[:2])
            self.backend.append_rows(rows, list(writes.items()))

        counts, dirty = self._campaign_counts, self._dirty
        rollups: TableRollup | None = None
        folded = 0
        for key, _payload, version, previous, record in staged:
            versions[key] = version
            if previous is None or previous[1] != label:
                if previous is not None:
                    counts[previous[1]] -= 1
                counts[label] = counts.get(label, 0) + 1
            if previous is not None:
                # A superseding version: the old content is already folded
                # into gold, so the rollups must be rebuilt from the latest
                # silver versions before the next query.
                dirty.add(label)
                dirty.add(previous[1])
            elif label not in dirty:
                if rollups is None:
                    rollups = self._rollups(label)
                rollups.fold(record)
                folded += 1
        for content, digest in verified.items():
            _remember(stored, content, digest)
        self.counters["blob_dedup_hits"] += blob_hits
        self.counters["rollup_dedup_skips"] += skips
        self.counters["rollup_records_applied"] += folded
        self.counters["rollup_syncs"] += 1
        return len(staged)

    def _text_word(self, value: str | None) -> int:
        """Digest word of a string column's value on a ``_digests`` miss."""
        if value is None:  # a NULL read back from a nullable text column
            return 0
        word = fnv1a_64(value.encode("utf-8"))
        _remember(self._digests, value, word)
        return word

    def _fragment(self, value: str | None) -> str:
        """JSON text of a string column's value on a ``_fragments`` miss."""
        if value is None:
            return "null"
        fragment = encode_basestring_ascii(value)
        _remember(self._fragments, value, fragment)
        return fragment

    def _stage_blob(self, content: str, digest: int, verified: dict[str, int],
                    writes: dict[int, str]) -> bool:
        """Check ``content`` against what ``digest`` already names -- in the
        backend or staged by this batch -- and stage its write if nothing
        does.  Returns whether it was already there (a dedup hit)."""
        existing = writes.get(digest)
        if existing is None:
            existing = self.backend.get_blob(digest)
        if existing is None:
            writes[digest] = content
        elif existing != content:
            raise StoreError(
                f"FNV-64 content digest collision on blob {digest:#018x}: "
                "two distinct payloads hash identically; the "
                "content-addressed dedup scheme cannot store both")
        verified[content] = digest
        return existing is not None

    def _decode(self, payload: str) -> tuple[ProcessRecord, str, int]:
        """Rebuild ``(record, campaign, digest)`` from one silver payload."""
        data = json.loads(payload)
        values: dict[str, object] = dict(data["fields"])
        for name, blob_digest in data["blobs"].items():
            content = self.backend.get_blob(int(blob_digest))
            if content is None:
                raise StoreError(
                    f"silver row references missing blob {int(blob_digest):#018x}"
                    f" for field {name!r} (compaction dropped a live blob?)")
            values[name] = content
        return ProcessRecord(**values), str(data["campaign"]), int(data["digest"])

    def _iter_live(self) -> Iterator[tuple[str, str, str]]:
        """Yield ``(key, payload, campaign)`` of every *latest* silver version."""
        for shard in range(self.shards):
            latest: dict[str, tuple[str, str]] = {}
            for key, payload in self.backend.iter_rows(shard):
                digest, campaign = self._current_version(key, payload)
                if digest is not None:
                    latest[key] = (payload, campaign)
            yield from ((key, payload, campaign)
                        for key, (payload, campaign) in latest.items())

    def _current_version(self, key: str, payload: str) -> tuple[str | None, str]:
        """Cheap latest-version check without decoding blobs."""
        data = json.loads(payload)
        digest, campaign = str(data["digest"]), str(data["campaign"])
        current = self._versions.get(key)
        if current is None or str(current[0]) != digest or current[1] != campaign:
            return None, campaign
        return digest, campaign

    # ------------------------------------------------------------------ #
    # record reconstruction
    # ------------------------------------------------------------------ #
    def records(self, campaign: str | None = None) -> list[ProcessRecord]:
        """Reconstruct the live records (latest version per key), key-sorted.

        ``campaign`` filters to one label; ``None`` returns every campaign's
        records.  The A/B seam: feeding the result to the
        :mod:`repro.analysis.stats` reference functions must reproduce every
        gold answer byte-for-byte.
        """
        records = []
        for _key, payload, label in self._iter_live():
            if campaign is not None and label != campaign:
                continue
            records.append(self._decode(payload)[0])
        records.sort(key=lambda record: record.key)
        return records

    def record_count(self, campaign: str | None = None) -> int:
        """Live (latest-version) record count, optionally per campaign."""
        if campaign is None:
            return len(self._versions)
        return self._campaign_counts.get(campaign, 0)

    def campaigns(self) -> list[str]:
        """Campaign labels present in silver, sorted."""
        return sorted(label for label, count in self._campaign_counts.items()
                      if count > 0)

    # ------------------------------------------------------------------ #
    # gold rollups
    # ------------------------------------------------------------------ #
    def _rollups(self, campaign: str) -> TableRollup:
        rollups = self._gold.get(campaign)
        if rollups is None:
            rollups = self._gold[campaign] = TableRollup(self.user_names)
        return rollups

    def _rebuild(self) -> None:
        """Rebuild the version map and every campaign's gold from silver."""
        self._versions.clear()
        # Pass 1: the latest version per key wins (append order per shard).
        for shard in range(self.shards):
            for key, payload in self.backend.iter_rows(shard):
                data = json.loads(payload)
                self._versions[key] = (int(data["digest"]), str(data["campaign"]))
        self._campaign_counts = {}
        for _digest, label in self._versions.values():
            self._campaign_counts[label] = \
                self._campaign_counts.get(label, 0) + 1
        # Pass 2: fold only the winning versions into fresh rollups.
        self._gold = {}
        for _key, payload, label in self._iter_live():
            record, _campaign, _digest = self._decode(payload)
            self._rollups(label).fold(record)
        self._dirty.clear()
        self.counters["rollup_rebuilds"] += 1

    def _query_rollups(self, campaign: str | None) -> TableRollup:
        if campaign is None:
            labels = self.campaigns() or [self.campaign]
            if len(labels) > 1:
                raise StoreError(
                    f"this tiered store holds {len(labels)} campaigns "
                    f"({', '.join(labels)}); name one to query its rollups")
            campaign = labels[0]
        if self._dirty:
            self.counters["rollup_query_misses"] += 1
            self._rebuild()
        else:
            self.counters["rollup_query_hits"] += 1
        return self._gold.get(campaign) or TableRollup(self.user_names)

    def user_activity(self, campaign: str | None = None) -> list[UserActivityRow]:
        """Table 2 in O(answer), byte-identical to ``user_activity_table``."""
        return self._query_rollups(campaign).user_activity()

    def system_executables(self, campaign: str | None = None,
                           top: int | None = 10) -> list[SystemExecutableRow]:
        """Table 3 in O(answer), byte-identical to ``system_executable_table``."""
        return self._query_rollups(campaign).system_executables(top)

    def shared_object_variants(
        self, executable_name: str, campaign: str | None = None,
        distinguish: tuple[str, ...] = ("libtinfo", "libm"),
    ) -> list[SharedObjectVariantRow]:
        """Table 4 in O(answer), byte-identical to ``shared_object_variant_table``."""
        return self._query_rollups(campaign).shared_object_variants(
            executable_name, distinguish)

    def python_interpreters(self, campaign: str | None = None,
                            ) -> list[PythonInterpreterRow]:
        """Table 8 in O(answer), byte-identical to ``python_interpreter_table``."""
        return self._query_rollups(campaign).python_interpreters()

    # ------------------------------------------------------------------ #
    # compaction and retention
    # ------------------------------------------------------------------ #
    def compact(self) -> int:
        """Drop superseded silver versions and unreferenced blobs.

        Idempotent: a second pass over an already-compacted store drops
        nothing.  Gold is untouched -- rollups only ever reference the
        latest versions, which compaction keeps.  Returns how many
        superseded row versions were dropped.
        """
        dropped = 0
        referenced: set[int] = set()
        for shard in range(self.shards):
            kept: dict[str, tuple[str, str]] = {}
            total = 0
            for key, payload in self.backend.iter_rows(shard):
                total += 1
                digest, _campaign = self._current_version(key, payload)
                if digest is not None:
                    kept[key] = (key, payload)
            if total != len(kept):
                self.backend.replace_rows(shard, list(kept.values()))
                dropped += total - len(kept)
            for _key, payload in kept.values():
                data = json.loads(payload)
                referenced.update(int(d) for d in data["blobs"].values())
        self.counters["compactions"] += 1
        self.counters["compaction_dropped"] += dropped
        self._collect_blobs(referenced)
        return dropped

    def drop_campaign(self, campaign: str) -> int:
        """Retention: drop one campaign's silver rows, blobs and rollups.

        Blobs still referenced by other campaigns survive (the dedup tier
        is shared); returns how many record versions were dropped.
        """
        dropped = 0
        referenced: set[int] = set()
        for shard in range(self.shards):
            kept: list[tuple[str, str]] = []
            lost = 0
            for key, payload in self.backend.iter_rows(shard):
                data = json.loads(payload)
                if str(data["campaign"]) == campaign:
                    lost += 1
                    continue
                kept.append((key, payload))
                referenced.update(int(d) for d in data["blobs"].values())
            if lost:
                self.backend.replace_rows(shard, kept)
                dropped += lost
        self._versions = {key: (digest, label)
                          for key, (digest, label) in self._versions.items()
                          if label != campaign}
        self._campaign_counts.pop(campaign, None)
        self._gold.pop(campaign, None)
        self._dirty.discard(campaign)
        self.counters["retention_dropped"] += dropped
        self._collect_blobs(referenced)
        return dropped

    def _collect_blobs(self, referenced: set[int]) -> None:
        """Garbage-collect blobs no live silver row references."""
        stale = [digest for digest in self._backend_blob_digests()
                 if digest not in referenced]
        if stale:
            self.backend.delete_blobs(stale)
            self._stored_blobs.clear()
            self.counters["blobs_collected"] += len(stale)

    def _backend_blob_digests(self) -> set[int]:
        # The protocol has no digest listing on purpose (keeps the seam
        # tiny); enumerate via the concrete backends we know about.  An
        # unknown backend simply skips garbage collection -- blobs linger,
        # answers stay correct.
        if isinstance(self.backend, MemoryBackend):
            return set(self.backend._blobs)
        if isinstance(self.backend, SqliteBackend):
            return {int(row[0]) & 0xFFFFFFFFFFFFFFFF
                    for row in self.backend.connection.execute(
                        "SELECT digest FROM tier_blobs")}
        return set()

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict[str, int]:
        """Operational counters of the tiered store (all registry-declared)."""
        counters = self.counters
        return {
            "silver_records": len(self._versions),
            "silver_rows": sum(self.backend.row_count(shard)
                               for shard in range(self.shards)),
            "silver_shards": self.shards,
            "blob_entries": self.backend.blob_count(),
            "rollup_campaigns": len(self.campaigns()),
            "blob_dedup_hits": counters["blob_dedup_hits"],
            "blobs_collected": counters["blobs_collected"],
            "compaction_dropped": counters["compaction_dropped"],
            "compactions": counters["compactions"],
            "retention_dropped": counters["retention_dropped"],
            "rollup_dedup_skips": counters["rollup_dedup_skips"],
            "rollup_query_hits": counters["rollup_query_hits"],
            "rollup_query_misses": counters["rollup_query_misses"],
            "rollup_rebuilds": counters["rollup_rebuilds"],
            "rollup_records_applied": counters["rollup_records_applied"],
            "rollup_syncs": counters["rollup_syncs"],
        }

    def close(self) -> None:
        """Release the backend."""
        self._digests.clear()
        self._fragments.clear()
        self._stored_blobs.clear()
        self.backend.close()


def build_tiered_store(backend_name: str, *, store_path: str = ":memory:",
                       shards: int = DEFAULT_SHARDS,
                       campaign: str = "campaign",
                       user_names: dict[int, str] | None = None) -> TieredStore:
    """Construct a :class:`TieredStore` from the ``store_backend`` knob.

    ``"sqlite"`` derives the backend path from the campaign's ``store_path``
    (``<store_path>.tiered`` on disk, in-memory alongside an in-memory
    store); ``"memory"`` uses the dict backend regardless of path.
    """
    if backend_name == "memory":
        backend: StoreBackend = MemoryBackend()
    elif backend_name == "sqlite":
        path = ":memory:" if store_path == ":memory:" else f"{store_path}.tiered"
        backend = SqliteBackend(path)
    else:
        raise StoreError(
            f"unknown store_backend {backend_name!r} "
            "(expected 'sqlite' or 'memory')")
    return TieredStore(backend, shards=shards, campaign=campaign,
                       user_names=user_names)
