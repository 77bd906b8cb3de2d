"""Live incremental analysis over streaming snapshots.

The paper computes its evaluation once, after the campaign; the streaming
ingest spine (PR 3) made the *records* live, but every mid-run peek still
rebuilt the whole analysis layer from scratch -- ``AnalysisPipeline``
regrouped all records, ``SimilaritySearch`` rebuilt its instance list and
n-gram index, and the compare LRU started cold, making each observation
O(campaign).  :class:`LiveAnalysis` replaces that with a consumer of record
*deltas*: each pull folds only the newly finalized records into streaming
accumulators (the Table 2/3/4/8 :class:`~repro.analysis.stats.TableRollup`,
the similarity instance list, the inverted n-gram index) and overlays the
handful of still-open process groups transiently, so a snapshot analysis
costs O(new records + open groups + result size) instead of O(everything so
far).

Equivalence argument
--------------------
Every view is pinned *byte-identical* to a fresh rebuild over the same
records (``tests/analysis/test_live.py``):

* **Finalized records are immutable.**  Streaming ingest writes records
  through the first-close-wins insert, so a committed record never changes
  and folding it into an accumulator exactly once is equivalent to
  regrouping it on every snapshot.
* **Open groups are overlaid, never committed.**  A still-open process
  group's peek record can change as messages arrive, so it only adjusts the
  view being rendered; the next delta re-peeks it.  Keys that are already
  finalized (a very late message resurrecting a closed group) are dropped,
  exactly as :meth:`~repro.ingest.incremental.IncrementalConsolidator.snapshot` does.
* **Row and tie order are reproduced, not approximated.**  The tables are
  :class:`~repro.analysis.stats.TableRollup` views (its module docstring
  has the min-key argument); similarity pools are ordered the same way, by
  each instance's minimum process key.
* **The index only accretes.**  :meth:`SimilarityIndex.add` assigns ids in
  append order and posting lists only grow, so an index extended one delta
  at a time equals one built over the full instance list; instances that
  exist only in the open-group overlay are compared directly (the same
  path ``SimilaritySearch.query`` takes for caller-supplied candidates),
  which can only *add* comparisons, never change scores.

Tables 2/3/4/8 per refresh
--------------------------
A pull that commits nothing and hands back the same peek folds into neither
accumulator (``refresh_open`` keeps an equal overlay), so each table view
is answered from the rollup's memory: no row is built until a record
commits or the peek changes (:mod:`repro.analysis.stats`, "Views from
memory").  What is left of such a refresh is its pulls, one per view.

Table 7 per refresh
-------------------
A Table 7 answer is identified by two inputs: the pool's instance keys in
pool order (path plus six digests: labels, scores and tie order follow from
them) and ``top``; the scoring rules are ssdeep's and fixed.  A refresh
whose two inputs equal the last answer's costs O(instances) -- one key tuple
compared -- and returns that answer again; ``process_count`` is not an
input, so a commit that only bumps counts is served from memory too.
Any other refresh re-runs the search: UNKNOWN x labelled x six columns of
index probes and compare-LRU lookups.  One
:class:`~repro.hashing.ssdeep.FuzzyHasher` lives for the whole analysis, so
the LRU stays warm across snapshots and only pairs with a new instance are
aligned afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.similarity import (
    HASH_COLUMNS,
    ExecutableInstance,
    SimilarityResult,
    SimilaritySearch,
    instance_from_record,
)
from repro.analysis.stats import (
    PythonInterpreterRow,
    SharedObjectVariantRow,
    SystemExecutableRow,
    TableRollup,
    UserActivityRow,
)
from repro.db.store import ProcessKey, ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.ingest.incremental import ProcessDelta
from repro.util.errors import AnalysisError


class DeltaSource(Protocol):
    """Anything that can serve incremental record deltas (the live feed)."""

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """What changed since ``cursor``; see :class:`ProcessDelta`."""
        ...


@dataclass
class LiveAnalysis:
    """Incrementally maintained Table 2/3/4/8 stats and similarity search.

    Feed it one of two ways:

    * **bound** -- :meth:`bind` it to a delta source (a
      :class:`~repro.ingest.incremental.IncrementalConsolidator`, a
      :class:`~repro.core.framework.SirenFramework`, or a
      :class:`~repro.workload.campaign.DeploymentCampaign`); every view
      method then pulls the latest delta first, so reads are always current;
    * **manual deltas** -- :meth:`commit` append-only finalized records and
      :meth:`refresh_open` the open-group overlay yourself.

    Views mirror their :class:`~repro.core.pipeline.AnalysisPipeline` /
    :class:`~repro.analysis.similarity.SimilaritySearch` counterparts and
    return byte-identical rows and rankings (see the module docstring for
    the argument, ``tests/analysis/test_live.py`` for the pinning).
    """

    user_names: dict[int, str] = field(default_factory=dict)
    hasher: FuzzyHasher = field(default_factory=FuzzyHasher)
    #: store rowid high-water mark (when bound)
    cursor: int = field(init=False, default=0)
    #: delta pulls performed
    syncs: int = field(init=False, default=0)
    _source: DeltaSource | None = field(init=False, default=None, repr=False)
    _keys: set[ProcessKey] = field(init=False, default_factory=set, repr=False)
    _open: list[ProcessRecord] = field(init=False, default_factory=list, repr=False)
    _tables: TableRollup = field(init=False, repr=False)
    _open_tables: TableRollup = field(init=False, repr=False)
    _instance_first: dict[tuple[str, ...], ProcessKey] = field(
        init=False, default_factory=dict, repr=False)
    _search: SimilaritySearch = field(init=False, repr=False)
    #: The merged, ordered instance pool of the current state (``None``: stale).
    _pool_cache: list[ExecutableInstance] | None = field(init=False, default=None,
                                                         repr=False)
    #: Table 7's last answer beside the inputs that determine it.
    _identified: tuple[tuple, dict[str, list[SimilarityResult]]] | None = field(
        init=False, default=None, repr=False)
    #: Table 7 answers served from memory, without a comparison.
    identify_reused: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._tables = TableRollup(self.user_names)
        self._open_tables = TableRollup(self.user_names)
        self._search = SimilaritySearch([], hasher=self.hasher)

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def bind(self, source: DeltaSource) -> "LiveAnalysis":
        """Attach a delta source; every view method pulls from it first."""
        self._source = source
        return self

    def sync(self) -> int:
        """Pull the next delta from the bound source; returns records committed.

        A no-op (returning 0) when no source is bound.
        """
        if self._source is None:
            return 0
        delta = self._source.snapshot_delta(self.cursor)
        committed = self.commit(delta.new_records)
        # Only a fully committed delta advances the cursor: if commit raised,
        # the same records are re-pulled next time instead of being lost.
        self.cursor = delta.cursor
        self.refresh_open(delta.open_records)
        self.syncs += 1
        return committed

    def commit(self, new_records) -> int:
        """Fold newly *finalized* records into the committed accumulators.

        Append-only: finalized records are immutable (the streaming insert
        is first-close-wins), so each is folded exactly once; re-committing
        a process key raises :class:`AnalysisError` rather than silently
        double-counting.  Returns how many records were committed.
        """
        fresh = list(new_records)
        # Validate the whole batch before touching any state, so a rejected
        # commit leaves the analysis exactly as it was (no half-folded batch
        # where the tables count a record the similarity pool lacks).
        batch_keys = []
        seen: set[ProcessKey] = set()
        for record in fresh:
            key = record.key
            if key in self._keys or key in seen:
                raise AnalysisError(
                    f"process key {key!r} committed twice -- the delta stream"
                    " must deliver each finalized record exactly once")
            seen.add(key)
            batch_keys.append(key)
        for record, key in zip(fresh, batch_keys):
            self._keys.add(key)
            self._tables.fold(record)
            instance_key = self._search.add_record(record)
            if instance_key is not None:
                first = self._instance_first.get(instance_key)
                if first is None or key < first:
                    self._instance_first[instance_key] = key
        if fresh:
            self._pool_cache = None
        return len(fresh)

    def refresh_open(self, open_records) -> None:
        """Replace the transient open-group overlay with the current peek.

        Open groups are provisional -- they accumulate messages until they
        close -- so they are overlaid on the committed state per view, never
        folded in.  Keys already committed (a closed group resurrected by a
        very late message) are dropped, matching ``IncrementalConsolidator.snapshot``.
        An overlay equal to the current one (a pull with nothing new hands
        back the very same peek) changes nothing and is not refolded.
        """
        opened = [record for record in open_records
                  if record.key not in self._keys]
        if opened == self._open:
            return      # the overlay the views already reflect
        self._pool_cache = None
        self._open = opened
        self._open_tables = TableRollup(self.user_names)
        for record in self._open:
            self._open_tables.fold(record)

    def _pull(self) -> None:
        if self._source is not None:
            self.sync()

    # ------------------------------------------------------------------ #
    # tables
    # ------------------------------------------------------------------ #
    def table2_user_activity(self) -> list[UserActivityRow]:
        """Table 2, live: identical to a fold of all records."""
        self._pull()
        return self._tables.user_activity(overlay=self._open_tables)

    def table3_system_executables(self, top: int | None = 10) -> list[SystemExecutableRow]:
        """Table 3, live: identical to a fold of all records."""
        self._pull()
        return self._tables.system_executables(top, overlay=self._open_tables)

    def table4_shared_object_variants(self, executable_name: str = "bash",
                                      ) -> list[SharedObjectVariantRow]:
        """Table 4, live: identical to a fold of all records."""
        self._pull()
        return self._tables.shared_object_variants(executable_name,
                                                   overlay=self._open_tables)

    def table8_python_interpreters(self) -> list[PythonInterpreterRow]:
        """Table 8, live: identical to a fold of all records."""
        self._pull()
        return self._tables.python_interpreters(overlay=self._open_tables)

    # ------------------------------------------------------------------ #
    # similarity
    # ------------------------------------------------------------------ #
    @property
    def instances(self) -> list[ExecutableInstance]:
        """The current instance list, identical to a fresh ``SimilaritySearch``'s."""
        self._pull()
        return list(self._pool())

    def unknown_instances(self) -> list[ExecutableInstance]:
        """Instances whose derived label is UNKNOWN (the search baselines)."""
        return [instance for instance in self.instances
                if instance.label == UNKNOWN_LABEL]

    def labelled_instances(self) -> list[ExecutableInstance]:
        """Instances with a known derived label (the search candidates)."""
        return [instance for instance in self.instances
                if instance.label != UNKNOWN_LABEL]

    def query(self, baseline: ExecutableInstance, *, top: int | None = None,
              columns: tuple[str, ...] = HASH_COLUMNS) -> list[SimilarityResult]:
        """Rank labelled instances by similarity to ``baseline`` (Table 7 query)."""
        self._pull()
        pool = [instance for instance in self._pool()
                if instance.label != UNKNOWN_LABEL]
        return self._search.query(baseline, candidates=pool, top=top, columns=columns)

    def identify_unknown(self, *, top: int = 10) -> dict[str, list[SimilarityResult]]:
        """The Table 7 search for every UNKNOWN instance, live.

        While the pool's instance keys in pool order and ``top`` are what
        the last search saw, its answer is returned again as fresh dict and
        list copies of the frozen rows, without an index probe or a
        compare-LRU lookup (the module docstring says why those two inputs
        suffice).  The rows are shared with every earlier caller; their
        ``scores`` are read-only.
        """
        self._pull()
        pool = self._pool()
        inputs = (tuple(instance.key for instance in pool), top)
        if self._identified is not None and self._identified[0] == inputs:
            self.identify_reused += 1
            answer = self._identified[1]
        else:
            unknowns = [instance for instance in pool if instance.label == UNKNOWN_LABEL]
            if not unknowns:
                raise AnalysisError("no UNKNOWN instances to identify")
            labelled = [instance for instance in pool if instance.label != UNKNOWN_LABEL]
            answer = {unknown.executable: self._search.query(unknown, candidates=labelled,
                                                             top=top)
                      for unknown in unknowns}
            self._identified = (inputs, answer)
        return {executable: list(rows) for executable, rows in answer.items()}

    def _pool(self) -> list[ExecutableInstance]:
        """Committed + overlay instances, in the rebuild's instance order.

        Committed instances come straight from the incrementally grown
        search; overlay records merge into them (bumping ``process_count``)
        or append as transient instances the query compares directly -- the
        index is never polluted with provisional digests.  Built once per
        pulled state: ``commit`` and ``refresh_open`` drop it when they
        change what it is built from.
        """
        if self._pool_cache is not None:
            return self._pool_cache
        overlay: dict[tuple[str, ...], tuple[ExecutableInstance, ProcessKey]] = {}
        for record in self._open:
            instance = instance_from_record(record)
            if instance is None:
                continue
            key = record.key
            existing = overlay.get(instance.key)
            if existing is None:
                overlay[instance.key] = (instance, key)
            else:
                merged = replace(existing[0], process_count=existing[0].process_count + 1)
                overlay[instance.key] = (merged, min(existing[1], key))
        entries: list[tuple[ProcessKey, ExecutableInstance]] = []
        for instance in self._search.instances:
            first = self._instance_first[instance.key]
            overlaid = overlay.pop(instance.key, None)
            if overlaid is not None:
                instance = replace(
                    instance, process_count=instance.process_count + overlaid[0].process_count)
                first = min(first, overlaid[1])
            entries.append((first, instance))
        for instance, first in overlay.values():
            entries.append((first, instance))
        entries.sort(key=lambda entry: entry[0])
        self._pool_cache = [instance for _, instance in entries]
        return self._pool_cache

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    @property
    def comparisons(self) -> int:
        """Digest comparisons across the analysis's lifetime, compare-LRU hits included."""
        return self._search.comparisons

    def index_stats(self):
        """Counters of the incrementally grown index (``None`` below threshold)."""
        return self._search.index_stats()

    def statistics(self) -> dict[str, int]:
        """Operational counters of the live analysis."""
        return {
            "records_committed": len(self._keys),
            "open_records": len(self._open),
            "instances": len(self._search.instances),
            "syncs": self.syncs,
            "cursor": self.cursor,
            "comparisons": self._search.comparisons,
            "identify_reused": self.identify_reused,
        }
