"""Fuzzy-hash similarity search: identify unknown executables (Table 7).

Given a *baseline* instance (typically one labelled ``UNKNOWN`` because its
file/path name is nondescript), the search compares its six fuzzy hashes --
modules (``MO_H``), compilers (``CO_H``), shared objects (``OB_H``), raw file
(``FI_H``), printable strings (``ST_H``) and symbols (``SY_H``) -- against
every other known instance and ranks candidates by the average similarity.
A perfect 100 across all columns means "effectively the same executable in the
same environment"; decreasing scores trace version/compilation distance.

Above a small size threshold the search runs on top of the inverted n-gram
index of :mod:`repro.analysis.simindex`: only instances sharing at least one
signature 7-gram with the baseline (per column, per block-size band) are ever
handed to the expensive signature alignment; every other pair is assigned its
provably-correct score of 0 without a comparison.  The results -- scores,
ranking, and tie order -- are identical to brute force by construction, and
``use_index=False`` keeps the plain quadratic path available for verification
and benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.analysis.labels import LABEL_RULES, UNKNOWN_LABEL, derive_label
from repro.analysis.simindex import DEFAULT_INDEX_THRESHOLD, IndexStats, SimilarityIndex
from repro.collector.classify import ExecutableCategory
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import AnalysisError

#: Column order of Table 7.
HASH_COLUMNS: tuple[str, ...] = ("MO_H", "CO_H", "OB_H", "FI_H", "ST_H", "SY_H")

_FIELD_OF_COLUMN: dict[str, str] = {
    "MO_H": "modules_h",
    "CO_H": "compilers_h",
    "OB_H": "objects_h",
    "FI_H": "file_h",
    "ST_H": "strings_h",
    "SY_H": "symbols_h",
}

_USER_CATEGORY = ExecutableCategory.USER.value


def instance_from_record(record: ProcessRecord,
                         rules: tuple = LABEL_RULES) -> "ExecutableInstance | None":
    """The instance a record contributes to, or ``None`` if it contributes none.

    Only user-directory records with a file hash form instances (the Table 7
    population); the returned instance carries ``process_count=1`` -- callers
    merge counts when several records share one key.
    """
    if record.category != _USER_CATEGORY or not record.file_h:
        return None
    hashes = {column: getattr(record, _FIELD_OF_COLUMN[column]) or ""
              for column in HASH_COLUMNS}
    return ExecutableInstance(
        executable=record.executable,
        label=derive_label(record.executable, rules),
        hashes=hashes,
    )


@dataclass(frozen=True)
class ExecutableInstance:
    """One distinct (executable content, environment) combination."""

    executable: str
    label: str
    hashes: dict[str, str]
    process_count: int = 1

    @cached_property
    def key(self) -> tuple[str, ...]:
        """Identity key: the executable path plus the six hash values, built once.

        The path is part of the identity because "multiple instances of
        (exactly) the same executable can exist in different paths"
        (Section 4.3) -- a byte-identical copy under a nondescript name must
        remain a distinct instance so the similarity search can match it back
        to its known counterpart.
        """
        get = self.hashes.get
        return (self.executable, *[get(column, "") for column in HASH_COLUMNS])


@dataclass(frozen=True)
class SimilarityResult:
    """One row of a similarity-search result (one candidate instance)."""

    label: str
    executable: str
    scores: dict[str, int]
    average: float

    def as_row(self) -> list[object]:
        """Row in Table 7 column order."""
        return [self.label, round(self.average, 1),
                *[self.scores.get(column, 0) for column in HASH_COLUMNS]]


@dataclass
class SimilaritySearch:
    """Index user-directory records into instances and run similarity queries.

    ``use_index=True`` (the default) prunes candidate pairs through the
    inverted n-gram index once the instance count reaches
    ``index_threshold``; below the threshold -- or when the hasher's
    common-substring requirement is disabled, which voids the index's pruning
    guarantee -- queries transparently fall back to brute force.  Either way
    the results are identical; only ``comparisons`` differs.
    """

    records: list[ProcessRecord]
    rules: tuple = LABEL_RULES
    hasher: FuzzyHasher = field(default_factory=FuzzyHasher)
    use_index: bool = True
    index_threshold: int = DEFAULT_INDEX_THRESHOLD
    instances: list[ExecutableInstance] = field(init=False)
    #: Number of digest comparisons actually performed (cache lookups count;
    #: pairs pruned by the index or short-circuited on empty digests do not).
    comparisons: int = field(init=False, default=0)
    _index: SimilarityIndex | None = field(init=False, default=None, repr=False)
    _positions: dict[tuple[str, ...], int] = field(init=False, default_factory=dict,
                                                   repr=False)

    def __post_init__(self) -> None:
        self.instances = []
        # The search owns its record list: growing it must not grow the
        # caller's (a campaign result's ``records``) behind its back.
        records, self.records = self.records, []
        self.add_records(records)

    # ------------------------------------------------------------------ #
    # index construction
    # ------------------------------------------------------------------ #
    def add_record(self, record: ProcessRecord) -> tuple[str, ...] | None:
        """Fold one record into the instance list (append or merge by key).

        Returns the key of the instance the record joined, ``None`` when it
        contributes to none -- the live layer tracks each instance's first
        process key by it, so a record's instance is derived once.
        """
        self.records.append(record)
        instance = instance_from_record(record, self.rules)
        if instance is None:
            return None
        key = instance.key
        position = self._positions.get(key)
        if position is None:
            self._positions[key] = len(self.instances)
            self.instances.append(instance)
        else:
            existing = self.instances[position]
            self.instances[position] = replace(
                existing, process_count=existing.process_count + 1)
        return key

    def add_records(self, new_records: list[ProcessRecord]) -> int:
        """Append new records, updating instances and the index in place.

        The incremental-growth path: records are folded into the existing
        instance list (new keys append, repeated keys bump their instance's
        ``process_count``), and a previously built n-gram index is *extended*
        -- not rebuilt -- the next time it is consulted.  A search grown this
        way is indistinguishable from a fresh one over the concatenated
        record list (pinned by the live-analysis property tests); before this
        path existed, mutating ``records`` after the first indexed query left
        the cached index silently stale.  Returns how many instances the new
        records created.
        """
        before = len(self.instances)
        for record in new_records:
            self.add_record(record)
        return len(self.instances) - before

    def unknown_instances(self) -> list[ExecutableInstance]:
        """Instances whose derived label is UNKNOWN (the search baselines)."""
        return [instance for instance in self.instances if instance.label == UNKNOWN_LABEL]

    def labelled_instances(self) -> list[ExecutableInstance]:
        """Instances with a known derived label (the search candidates)."""
        return [instance for instance in self.instances if instance.label != UNKNOWN_LABEL]

    # ------------------------------------------------------------------ #
    # index plumbing
    # ------------------------------------------------------------------ #
    def _effective_index(self) -> SimilarityIndex | None:
        """The candidate-pruning index, or ``None`` when brute force applies.

        The index's no-false-negative guarantee rests on ``compare`` refusing
        to score signature pairs without a common 7-gram, so a hasher with
        ``require_common_substring=False`` disables it; so does a dataset
        smaller than ``index_threshold``, where building the index costs more
        than the scan it saves.
        """
        if not self.use_index:
            return None
        if not getattr(self.hasher, "require_common_substring", True):
            return None
        if len(self.instances) < self.index_threshold:
            return None
        if self._index is None:
            self._index = SimilarityIndex([], columns=HASH_COLUMNS)
        # Instances added since the index was last consulted extend it in
        # place.  Ids are instance-list positions (what ``_positions`` maps a
        # key to), and the posting lists only accrete, so the grown index
        # equals a fresh build.
        for position in range(len(self._index), len(self.instances)):
            self._index.add(self.instances[position].hashes)
        return self._index

    @property
    def indexed(self) -> bool:
        """Whether queries currently run through the n-gram index."""
        return self._effective_index() is not None

    def index_stats(self) -> IndexStats | None:
        """Aggregated index counters (``None`` while on the brute-force path)."""
        index = self._effective_index()
        return index.stats() if index is not None else None

    def _compare_digests(self, hash_a: str, hash_b: str) -> int:
        """One counted, cached digest comparison (empty digests score 0 free)."""
        if not hash_a or not hash_b:
            return 0
        self.comparisons += 1
        return self.hasher.compare_cached(hash_a, hash_b)

    def _compare_digest_batch(self, baseline: str, digests: list[str]) -> list[int]:
        """Counted batch of :meth:`_compare_digests` against one baseline.

        The batched hot path: non-empty pairs go through
        :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare_many` in one sweep
        (deduplicated, LRU-fed); empty digests score their 0 without a
        counted comparison and without touching the cache, exactly as the
        scalar helper does.  Counter semantics match pair-for-pair.
        """
        scores = [0] * len(digests)
        if not baseline:
            return scores
        present = [position for position, digest in enumerate(digests) if digest]
        if not present:
            return scores
        self.comparisons += len(present)
        batch = self.hasher.compare_many(
            baseline, [digests[position] for position in present])
        for position, score in zip(present, batch):
            scores[position] = score
        return scores

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def compare_instances(self, first: ExecutableInstance,
                          second: ExecutableInstance) -> dict[str, int]:
        """Per-column similarity scores between two instances."""
        return {column: self._compare_digests(first.hashes.get(column, ""),
                                              second.hashes.get(column, ""))
                for column in HASH_COLUMNS}

    def compare_instances_many(self, first: ExecutableInstance,
                               others: list[ExecutableInstance],
                               columns: tuple[str, ...] = HASH_COLUMNS,
                               ) -> list[dict[str, int]]:
        """Batched :meth:`compare_instances` of one instance against many.

        One :meth:`_compare_digest_batch` sweep per column; scores, the
        comparison counter and the compare LRU behave exactly as the scalar
        loop would.  The recognition layer's similarity graph runs on this.
        """
        scores: list[dict[str, int]] = [{} for _ in others]
        for column in columns:
            batch = self._compare_digest_batch(
                first.hashes.get(column, ""),
                [other.hashes.get(column, "") for other in others])
            for row, score in zip(scores, batch):
                row[column] = score
        return scores

    def query(
        self,
        baseline: ExecutableInstance,
        *,
        candidates: list[ExecutableInstance] | None = None,
        top: int | None = None,
        columns: tuple[str, ...] = HASH_COLUMNS,
    ) -> list[SimilarityResult]:
        """Rank candidate instances by average similarity to ``baseline``.

        With the index active, a column comparison is only performed when the
        candidate shares an indexed n-gram with the baseline on that column;
        all other scores are 0 by the index's pruning guarantee.  Each
        column's surviving pairs are scored in one
        :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare_many` sweep.
        Pool positions are ranked by a stable sort on the averages, on both
        paths, so rankings (including ties, which keep pool order) are
        identical; only the ``top`` rows returned are built.
        """
        pool = candidates if candidates is not None else self.labelled_instances()
        columns = tuple(dict.fromkeys(columns))
        index = self._effective_index()
        # Columns the index does not cover (anything outside HASH_COLUMNS)
        # simply miss from per_column and are compared directly, exactly as
        # the brute-force path would.
        per_column: dict[str, set[int]] = {}
        if index is not None:
            per_column = index.candidates_by_column(
                baseline.hashes, tuple(column for column in columns
                                       if column in index.columns))
        # One pass for the ids.  Caller-supplied instances outside the built
        # index (no id) are compared directly; indexed ones only where a
        # shared n-gram makes a non-zero score possible.
        baseline_key = baseline.key
        kept = [candidate for candidate in pool if candidate.key != baseline_key]
        kept_ids = [self._positions.get(candidate.key) for candidate in kept]
        column_scores: list[list[int]] = []
        for column in columns:
            bucket = per_column.get(column)
            if bucket is None:
                targets = range(len(kept))
            else:  # the rest is pruned: 0 by the index's no-false-negative guarantee
                targets = [position for position, candidate_id in enumerate(kept_ids)
                           if candidate_id is None or candidate_id in bucket]
            scores = [0] * len(kept)
            batch = self._compare_digest_batch(
                baseline.hashes.get(column, ""),
                [kept[position].hashes.get(column, "") for position in targets])
            for position, score in zip(targets, batch):
                scores[position] = score
            column_scores.append(scores)
        # Rank positions, not results: a stable sort on the averages keeps
        # pool order on ties, and only the rows returned are ever built.
        averages = ([sum(row) / len(columns) for row in zip(*column_scores)]
                    if columns else [0.0] * len(kept))
        ranked = sorted(range(len(kept)), key=averages.__getitem__, reverse=True)[:top]
        return [SimilarityResult(
            label=kept[position].label, executable=kept[position].executable,
            scores={column: scores[position]
                    for column, scores in zip(columns, column_scores)},
            average=averages[position]) for position in ranked]

    def identify_unknown(self, *, top: int = 10) -> dict[str, list[SimilarityResult]]:
        """Run the Table 7 search for every UNKNOWN instance.

        Returns a mapping of the unknown instance's executable path to its
        ranked candidate list.  The candidate pool is materialised once and
        shared across every baseline -- the instance list cannot change
        between queries, so rebuilding it per UNKNOWN (as the seed did) only
        re-filtered the same list.
        """
        unknowns = self.unknown_instances()
        if not unknowns:
            raise AnalysisError("no UNKNOWN instances to identify")
        labelled = self.labelled_instances()
        return {
            unknown.executable: self.query(unknown, candidates=labelled, top=top)
            for unknown in unknowns
        }

    def best_match(self, baseline: ExecutableInstance) -> SimilarityResult | None:
        """The single best candidate for a baseline (or ``None`` if no candidates)."""
        ranked = self.query(baseline, top=1)
        return ranked[0] if ranked else None

    # ------------------------------------------------------------------ #
    # pairwise matrix (used by the scaling ablation bench)
    # ------------------------------------------------------------------ #
    def pairwise_average_matrix(self, column: str = "FI_H") -> list[list[int]]:
        """Full pairwise similarity matrix over instances for one hash column.

        Indexed, only the pairs sharing an n-gram are aligned; the rest of the
        ``O(N**2)`` matrix is filled with the 0 they would have scored.  Each
        row's surviving pairs are scored in one
        :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare_many` sweep.
        Missing digests go through the same batch helper every other path
        uses, so they score their 0 without a counted comparison and without
        planting placeholder pairs in the compare LRU -- the counter and
        cache semantics match :meth:`query` exactly.
        """
        size = len(self.instances)
        matrix = [[0] * size for _ in range(size)]
        index = self._effective_index()
        if index is not None and column not in index.columns:
            index = None  # unindexed column: compare directly, as brute force does
        digests = [instance.hashes.get(column, "") for instance in self.instances]
        for i in range(size):
            matrix[i][i] = 100
            candidates = index.candidates(digests[i], column) if index is not None else None
            if candidates is None:
                others = list(range(i + 1, size))
            else:
                others = [j for j in range(i + 1, size) if j in candidates]
            batch = self._compare_digest_batch(digests[i],
                                               [digests[j] for j in others])
            for j, score in zip(others, batch):
                matrix[i][j] = score
                matrix[j][i] = score
        return matrix
