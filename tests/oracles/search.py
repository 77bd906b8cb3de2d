"""The all-pairs Table 7 reference: every pair scored, nothing pruned.

:class:`~repro.analysis.similarity.SimilaritySearch` prunes candidate pairs
through an n-gram gate and claims the answers of comparing every pair.  This
module computes those answers the plain way -- every (baseline, candidate)
pair through :meth:`~repro.hashing.ssdeep.FuzzyHasher.compare`, ranked by a
stable sort on the averages -- so a test pins ``query``,
``identify_unknown`` and ``pairwise_average_matrix`` to it.
"""

from __future__ import annotations

from repro.analysis.labels import UNKNOWN_LABEL
from repro.analysis.similarity import HASH_COLUMNS, ExecutableInstance, SimilarityResult
from repro.hashing.ssdeep import FuzzyHasher
from repro.util.readonly import ReadOnlyDict

#: ``compare`` bypasses the compare LRU, so one hasher serves every call.
_HASHER = FuzzyHasher()


def reference_query(baseline: ExecutableInstance, pool: list[ExecutableInstance], *,
                    top: int | None = None, columns: tuple[str, ...] = HASH_COLUMNS,
                    ) -> list[SimilarityResult]:
    """``pool`` ranked by average similarity to ``baseline``, itself (by key) left out."""
    columns = tuple(dict.fromkeys(columns))
    rows = []
    for candidate in pool:
        if candidate.key == baseline.key:
            continue
        scores = {column: _HASHER.compare(baseline.hashes.get(column, ""),
                                          candidate.hashes.get(column, ""))
                  for column in columns}
        rows.append(SimilarityResult(
            label=candidate.label, executable=candidate.executable,
            scores=ReadOnlyDict(scores),
            average=sum(scores.values()) / len(columns) if columns else 0.0))
    return sorted(rows, key=lambda row: row.average, reverse=True)[:top]


def reference_identify(instances: list[ExecutableInstance], *, top: int = 10,
                       ) -> dict[str, list[SimilarityResult]]:
    """Table 7: every UNKNOWN instance against every labelled one."""
    labelled = [instance for instance in instances if instance.label != UNKNOWN_LABEL]
    return {unknown.executable: reference_query(unknown, labelled, top=top)
            for unknown in instances if unknown.label == UNKNOWN_LABEL}


def reference_matrix(instances: list[ExecutableInstance],
                     column: str = "FI_H") -> list[list[int]]:
    """Every pair's score on one column; the diagonal is 100."""
    digests = [instance.hashes.get(column, "") for instance in instances]
    matrix = [[100 if i == j else 0 for j in range(len(digests))]
              for i in range(len(digests))]
    for i, first in enumerate(digests):
        for j in range(i + 1, len(digests)):
            matrix[i][j] = matrix[j][i] = _HASHER.compare(first, digests[j])
    return matrix
