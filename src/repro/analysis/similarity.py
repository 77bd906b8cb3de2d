"""Fuzzy-hash similarity search: identify unknown executables (Table 7).

Given a *baseline* instance (typically one labelled ``UNKNOWN`` because its
file/path name is nondescript), the search compares its six fuzzy hashes --
modules (``MO_H``), compilers (``CO_H``), shared objects (``OB_H``), raw file
(``FI_H``), printable strings (``ST_H``) and symbols (``SY_H``) -- against
every other known instance and ranks candidates by the average similarity.
A perfect 100 across all columns means "effectively the same executable in the
same environment"; decreasing scores trace version/compilation distance.

Every answer -- one query, the whole Table 7, a pairwise matrix -- is scored
the same way: per column, the baselines' distinct digests are registered in
a throwaway :class:`~repro.analysis.simindex.DigestIndex` gate and each
distinct pool digest probes it once; then the pairs every column's gate
passed are scored in one :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare_pairs`
call -- compare-LRU hits first, the rest in one kernel sweep.  Only pairs
sharing a signature 7-gram in an aligned block-size band (or the exact
signatures of a gram-less digest) are ever compared; every other pair is
assigned its provably-correct score of 0.  The results -- scores, ranking,
and tie order -- are those of comparing every pair, malformed digests
included: the comparer scores a digest that does not parse 0, and the gate
never passes it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as _np

from repro.analysis.labels import UNKNOWN_LABEL, derive_label
from repro.analysis.simindex import DigestIndex, IndexStats
from repro.analysis.stats import _USER
from repro.db.store import ProcessRecord
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.errors import AnalysisError
from repro.util.readonly import ReadOnlyDict

#: Column order of Table 7.
HASH_COLUMNS: tuple[str, ...] = ("MO_H", "CO_H", "OB_H", "FI_H", "ST_H", "SY_H")


def instance_key(record: ProcessRecord) -> tuple[str, ...] | None:
    """The key of the instance a record joins, or ``None`` if it joins none.

    Only user-directory records with a file hash form instances (the Table 7
    population).  The key is read straight from the record's fields: the
    executable path, then its six digests in :data:`HASH_COLUMNS` order, a
    missing one as ``""`` -- the :attr:`ExecutableInstance.key` of the
    instance the record joins.
    """
    if record.category != _USER or not record.file_h:
        return None
    return (record.executable, record.modules_h or "", record.compilers_h or "",
            record.objects_h or "", record.file_h, record.strings_h or "",
            record.symbols_h or "")


class _Gated(NamedTuple):
    """What one column's gate found: both sides' distinct digests, each
    side's digest ids (positions among them) and the passed pairs."""

    distinct: list[str]                #: the baselines' distinct digests
    rows: list[int]                    #: each baseline's id
    probes: list[str]                  #: the targets' distinct digests
    cols: list[int]                    #: each target's id
    passed: list[tuple[int, int]]      #: (baseline id, target id) pairs passed


@dataclass(frozen=True)
class ExecutableInstance:
    """One distinct (executable content, environment) combination."""

    executable: str
    label: str
    hashes: dict[str, str]
    process_count: int = 1

    @classmethod
    def from_key(cls, key: tuple[str, ...], process_count: int) -> "ExecutableInstance":
        """The instance a key stands for, its label derived from the path.

        Its ``hashes`` are read-only: the search hands its instances out,
        and a digest written through one would change the pool it answers
        over.
        """
        instance = cls(executable=key[0], label=derive_label(key[0]),
                       hashes=ReadOnlyDict(zip(HASH_COLUMNS, key[1:])),
                       process_count=process_count)
        instance.__dict__["key"] = key        # what :attr:`key` would build from it
        return instance

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
    scores: ReadOnlyDict  #: column -> score; shared by every caller of a reused answer
    average: float

    def as_row(self) -> list[object]:
        """Row in Table 7 column order."""
        return [self.label, round(self.average, 1),
                *[self.scores.get(column, 0) for column in HASH_COLUMNS]]


@dataclass
class SimilaritySearch:
    """Index user-directory records into instances and run similarity queries.

    Every query prunes its candidate pairs through a gate over its own
    baselines (see the module docstring); the results equal comparing every
    pair, and ``comparisons`` counts only the pairs the gate passed.
    """

    records: list[ProcessRecord]
    hasher: FuzzyHasher = field(default_factory=FuzzyHasher)
    instances: list[ExecutableInstance] = field(init=False)
    #: Number of digest comparisons actually performed (cache lookups count;
    #: pairs pruned by the gate, missing or malformed digests included, do not).
    comparisons: int = field(init=False, default=0)
    _stats: IndexStats = field(init=False, default_factory=IndexStats, repr=False)
    _positions: dict[tuple[str, ...], int] = field(init=False, default_factory=dict,
                                                   repr=False)

    def __post_init__(self) -> None:
        self.instances = []
        # The search owns its record list: growing it must not grow the
        # caller's (a campaign result's ``records``) behind its back.
        records, self.records = self.records, []
        self.add_records(records)

    # ------------------------------------------------------------------ #
    # instance list
    # ------------------------------------------------------------------ #
    def add_records(self, new_records: Sequence[ProcessRecord]) -> int:
        """Append new records, updating the instance list in place.

        The incremental-growth path: records are folded into the existing
        instance list (new keys append, repeated keys bump their instance's
        ``process_count``).  A search grown this way is indistinguishable
        from a fresh one over the concatenated record list (pinned by the
        live-analysis property tests): no query state outlives its query.
        Returns how many instances the new records created.

        A record that is not a user process costs one string compare.  The
        rest are counted per :func:`instance_key`, and the instances are
        built after the pass: one :meth:`ExecutableInstance.from_key` per new
        key, carrying its count, and one ``replace`` per existing instance the
        batch grows.  A merging record builds nothing.
        """
        self.records.extend(new_records)
        joined: dict[tuple[str, ...], int] = {}
        for record in new_records:
            if record.category == _USER:
                key = instance_key(record)
                if key is not None:
                    joined[key] = joined.get(key, 0) + 1
        positions, instances = self._positions, self.instances
        before = len(instances)
        for grown, count in joined.items():
            position = positions.get(grown)
            if position is None:
                positions[grown] = len(instances)
                instances.append(ExecutableInstance.from_key(grown, count))
            else:
                existing = instances[position]
                instances[position] = replace(
                    existing, process_count=existing.process_count + count)
        return len(instances) - before

    def unknown_instances(self) -> list[ExecutableInstance]:
        """Instances whose derived label is UNKNOWN (the search baselines)."""
        return [instance for instance in self.instances if instance.label == UNKNOWN_LABEL]

    def labelled_instances(self) -> list[ExecutableInstance]:
        """Instances with a known derived label (the search candidates)."""
        return [instance for instance in self.instances if instance.label != UNKNOWN_LABEL]

    def index_stats(self) -> IndexStats:
        """The counters of every gate this search has built, summed (a copy)."""
        return replace(self._stats)

    # ------------------------------------------------------------------ #
    # the scoring routine
    # ------------------------------------------------------------------ #
    def _gate(self, baselines: list[str], targets: list[str] | None = None) -> _Gated:
        """One column's gate: who each side is, and the pairs it passes.

        The baselines' distinct digests are registered in a throwaway gate
        and each distinct target digest probes it once.  A pair not passed
        scores 0: the gate pruned it.  Without ``targets`` the baselines are
        their own targets, each unordered pair passed at most once, under
        the digest registered first, and a digest against itself only when
        two baselines carry it.
        """
        gate = DigestIndex(self._stats)
        ids: dict[str, int] = {}
        rows = [ids.setdefault(digest, len(ids)) for digest in baselines]
        distinct = list(ids)
        for digest_id, digest in enumerate(distinct):
            gate.add(digest_id, digest)
        if targets is None:
            probes, cols, repeated = distinct, rows, Counter(rows)
        else:
            found: dict[str, int] = {}
            cols = [found.setdefault(digest, len(found)) for digest in targets]
            probes = list(found)
        passed = []
        for target_id, target in enumerate(probes):
            mask = gate.candidates(target)
            if targets is None:
                mask &= (1 << target_id + (repeated[target_id] > 1)) - 1
            while mask:
                low = mask & -mask
                passed.append((low.bit_length() - 1, target_id))
                mask ^= low
        return _Gated(distinct, rows, probes, cols, passed)

    def _count(self, passed: int, pairs: int) -> None:
        """Book ``pairs`` (baseline, pool instance) pairs, ``passed`` of them compared."""
        self.comparisons += passed
        self._stats.candidates_returned += passed
        self._stats.pairs_pruned += pairs - passed

    def _rank(self, baselines: list[ExecutableInstance], pool: list[ExecutableInstance],
              *, top: int | None, columns: tuple[str, ...]) -> list[list[SimilarityResult]]:
        """Each baseline's ranked ``pool``, itself (by key) left out.

        Every column's gate runs first, and the pairs all of them pass are
        scored in one :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare_pairs`
        call.  The scores then become arrays indexed by (column, baseline,
        pool position) -- one gather from a flat table of every column's
        (distinct baseline, distinct target) scores -- their integer sum
        over the columns, and a stable descending sort of it, so ties keep
        pool order.  Only the ``top`` rows returned are built, holding
        Python ints and floats.
        """
        columns = tuple(dict.fromkeys(columns))
        gates = [self._gate([baseline.hashes.get(column, "") for baseline in baselines],
                            [candidate.hashes.get(column, "") for candidate in pool])
                 for column in columns]
        # Every column's (distinct baseline, distinct target) table, flat.
        pairs: list[tuple[str, str]] = []
        cells: list[int] = []
        offsets = [0]
        for gated in gates:
            width = len(gated.probes)
            pairs += [(gated.distinct[row], gated.probes[col]) for row, col in gated.passed]
            cells += [offsets[-1] + row * width + col for row, col in gated.passed]
            offsets.append(offsets[-1] + len(gated.distinct) * width)
        scored = _np.zeros(offsets[-1], dtype=_np.intp)
        scored[cells] = self.hasher.compare_pairs(pairs)
        passed = _np.zeros(offsets[-1], dtype=bool)
        passed[cells] = True
        # The cell of each (column, baseline, pool position).
        starts = _np.array([[offset + row * len(gated.probes) for row in gated.rows]
                            for offset, gated in zip(offsets, gates)], dtype=_np.intp)
        targets = _np.array([gated.cols for gated in gates], dtype=_np.intp)
        at = starts.reshape(len(columns), len(baselines), 1) \
            + targets.reshape(len(columns), 1, len(pool))
        tables = scored[at]
        positions_of: dict[tuple[str, ...], list[int]] = {}
        for position, candidate in enumerate(pool):
            positions_of.setdefault(candidate.key, []).append(position)
        itself = _np.zeros((len(baselines), len(pool)), dtype=bool)
        for index, baseline in enumerate(baselines):
            itself[index, positions_of.get(baseline.key, [])] = True
        kept = len(pool) - itself.sum(axis=1)
        self._count(int(passed[at].sum(axis=0)[~itself].sum()), int(kept.sum()) * len(columns))
        sums = tables.sum(axis=0)
        order = _np.argsort(_np.where(itself, 1, -sums), axis=1, kind="stable")
        by_position = tables.transpose(1, 2, 0)
        answers = []
        for index, ranked in enumerate(order):
            ranked = ranked[:kept[index]][:top]
            answers.append([SimilarityResult(
                label=pool[position].label, executable=pool[position].executable,
                scores=ReadOnlyDict(zip(columns, row)),
                average=total / len(columns) if columns else 0.0)
                for position, row, total in zip(ranked.tolist(),
                                                by_position[index, ranked].tolist(),
                                                sums[index, ranked].tolist())])
        return answers

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        baseline: ExecutableInstance,
        *,
        candidates: list[ExecutableInstance] | None = None,
        top: int | None = None,
        columns: tuple[str, ...] = HASH_COLUMNS,
    ) -> list[SimilarityResult]:
        """Rank ``candidates`` (default: the labelled instances) by average similarity.

        A candidate with the baseline's key is left out; columns outside
        :data:`HASH_COLUMNS` score 0.  Equal averages keep candidate order.
        """
        pool = candidates if candidates is not None else self.labelled_instances()
        return self._rank([baseline], pool, top=top, columns=columns)[0]

    def identify_unknown(self, *, top: int = 10,
                         instances: list[ExecutableInstance] | None = None,
                         ) -> dict[str, list[SimilarityResult]]:
        """Run the Table 7 search for every UNKNOWN instance.

        Returns a mapping of the unknown instance's executable path to its
        ranked list of labelled candidates.  ``instances`` (default: this
        search's) is the population both sides are drawn from; every
        unknown is scored in the one pass of :meth:`_rank`, so each column
        builds one gate over the unknowns' digests and probes each distinct
        labelled digest once.
        """
        instances = self.instances if instances is None else instances
        unknowns = [instance for instance in instances if instance.label == UNKNOWN_LABEL]
        if not unknowns:
            raise AnalysisError("no UNKNOWN instances to identify")
        labelled = [instance for instance in instances if instance.label != UNKNOWN_LABEL]
        answers = self._rank(unknowns, labelled, top=top, columns=HASH_COLUMNS)
        return {unknown.executable: rows for unknown, rows in zip(unknowns, answers)}

    # ------------------------------------------------------------------ #
    # pairwise matrix (the recognition graph and the pipeline's analysis.matrix_s)
    # ------------------------------------------------------------------ #
    def pairwise_average_matrix(self, column: str = "FI_H") -> list[list[int]]:
        """Full pairwise similarity matrix over instances for one hash column.

        Only the pairs the gate passes are scored, each distinct digest pair
        once and all in one ``compare_pairs`` call; the rest of the
        ``O(N**2)`` matrix keeps the 0 they would have scored, and the
        diagonal is 100.
        """
        digests = [instance.hashes.get(column, "") for instance in self.instances]
        size = len(digests)
        matrix = [[0] * size for _ in range(size)]
        members: dict[str, list[int]] = {}
        for position, digest in enumerate(digests):
            matrix[position][position] = 100
            members.setdefault(digest, []).append(position)
        gated = self._gate(digests)
        pairs = [(gated.distinct[row], gated.distinct[col]) for row, col in gated.passed]
        passed = 0
        for (first, second), score in zip(pairs, self.hasher.compare_pairs(pairs)):
            for i in members[first]:
                for j in members[second]:
                    if i != j:
                        matrix[i][j] = matrix[j][i] = score
            passed += (len(members[first]) * (len(members[first]) - 1) // 2
                       if first == second
                       else len(members[first]) * len(members[second]))
        self._count(passed, size * (size - 1) // 2)
        return matrix
