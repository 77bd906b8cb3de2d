"""The scalar fuzzy-hash comparison: the oracle the compare engine is pinned to.

:meth:`repro.hashing.ssdeep.FuzzyHasher.compare` scores through the batched
bit-parallel engine of :mod:`repro.hashing.compare_engine`.  This is the
comparison as ssdeep states it, one pair at a time: parse both digests (with
a parser of its own, to the engine's rule: a digest that does not parse
scores 0), collapse long runs, demand a common 7-gram, align the signatures
with a weighted Damerau-Levenshtein DP and rescale the distance into 0-100.  The
rescaling and the small-block-size cap are the hasher's own ``_scores`` and
``_cap_unit``, so the scoring arithmetic is written once.  The 7-gram gate is
a parameter here, and only here: the engine always applies it, and a test
switches it off to show that it does.

The paper (Section 2.1) describes ssdeep's comparison as a
Damerau-Levenshtein distance over the two signature strings -- insertions,
deletions, substitutions, and transpositions of adjacent characters.  The
distances here:

* :func:`levenshtein` -- the classic unit-cost Levenshtein distance,
* :func:`damerau_levenshtein` -- the restricted (optimal string alignment)
  Damerau-Levenshtein distance with unit costs,
* :func:`weighted_edit_distance` -- the configurable-cost variant the fuzzy
  comparison actually uses (ssdeep's ``edit_distn`` charges 1 for
  insert/delete and 2 for substitution; transpositions cost 2 here so that a
  swap is never more expensive than the delete+insert it replaces).

All of them run in ``O(len(a)*len(b))`` time and ``O(min(len(a), len(b)))``
memory.  :func:`default_cost_distance` is the one-pair form of the engine's
kernel reduction, which the tests pin to :func:`weighted_edit_distance`.
"""

from __future__ import annotations

import re

from repro.hashing.compare_engine import eliminate_sequences, lcs_length, signature_masks
from repro.hashing.rolling import ROLLING_WINDOW
from repro.hashing.ssdeep import FuzzyHasher

#: ``blocksize:sig1:sig2``: 1 to 20 ASCII decimal digits, then two
#: colon-separated signatures (the second may hold further colons).
_DIGEST = re.compile(r"([0-9]{1,20}):([^:]*):(.*)", re.DOTALL)


def parse_digest(digest: str) -> tuple[int, str, str] | None:
    """(block size, sig1, sig2), or ``None`` for a digest that does not parse
    (no match, or a zero block size)."""
    match = _DIGEST.fullmatch(digest)
    if match is None or int(match[1]) == 0:
        return None
    return int(match[1]), match[2], match[3]


def malformed(digest: str) -> list[str]:
    """Damaged forms of a well-formed ``digest``, none of which parses: a
    truncated prefix, a zero, non-digit or space-padded block size, and the
    signatures run together behind a single colon."""
    block, sig1, sig2 = digest.split(":", 2)
    return [f"{block}:{sig1[:4]}", f"0:{sig1}:{sig2}", f"x{block}:{sig1}:{sig2}",
            f" {block}:{sig1}:{sig2}", f"{block} :{sig1}:{sig2}", f"{block}:{sig1}{sig2}"]


def compare_reference(first: str, second: str, *,
                      require_common_substring: bool = True) -> int:
    """``FuzzyHasher().compare(first, second)``, one pair at a time: parse,
    normalise and align (without the 7-gram gate when
    ``require_common_substring`` is false)."""
    h1, h2 = parse_digest(first), parse_digest(second)
    if h1 is None or h2 is None:
        return 0

    (b1, sig1a, sig1b), (b2, sig2a, sig2b) = h1, h2
    if b1 != b2 and b1 != b2 * 2 and b2 != b1 * 2:
        return 0

    s1a = eliminate_sequences(sig1a)
    s1b = eliminate_sequences(sig1b)
    s2a = eliminate_sequences(sig2a)
    s2b = eliminate_sequences(sig2b)

    if b1 == b2 and s1a == s2a and s1b == s2b and s1a:
        return 100

    gate = require_common_substring
    if b1 == b2:
        score1 = _score_strings(s1a, s2a, b1, gate)
        score2 = _score_strings(s1b, s2b, b1 * 2, gate)
        return max(score1, score2)
    if b1 == b2 * 2:
        return _score_strings(s1a, s2b, b1, gate)
    return _score_strings(s1b, s2a, b2, gate)


def _score_strings(s1: str, s2: str, block_size: int, gate: bool) -> int:
    """Convert an edit distance between two signatures into a 0-100 score."""
    if not s1 or not s2:
        return 0
    if gate and not has_common_substring(s1, s2, ROLLING_WINDOW):
        return 0
    if s1 == s2:
        distance = 0
    else:
        # Any distance >= len(s1) + len(s2) rescales to a score of 0, so
        # the alignment may stop early once that is certain; scores are
        # unchanged (tests pin new-vs-unbounded equality).
        distance = weighted_edit_distance(s1, s2, bound=len(s1) + len(s2) - 1)
    # For small block sizes, the score is capped so short inputs cannot
    # claim near-perfect similarity on the strength of a handful of pieces.
    return int(FuzzyHasher._scores(distance, len(s1), len(s2),
                                   FuzzyHasher._cap_unit(block_size)))


def levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance between ``a`` and ``b``."""
    return weighted_edit_distance(a, b, insert_cost=1, delete_cost=1, substitute_cost=1,
                                  transpose_cost=None)


def damerau_levenshtein(a: str, b: str) -> int:
    """Restricted Damerau-Levenshtein (OSA) distance with unit costs."""
    return weighted_edit_distance(a, b, insert_cost=1, delete_cost=1, substitute_cost=1,
                                  transpose_cost=1)


def weighted_edit_distance(
    a: str,
    b: str,
    *,
    insert_cost: int = 1,
    delete_cost: int = 1,
    substitute_cost: int = 2,
    transpose_cost: int | None = 2,
    bound: int | None = None,
) -> int:
    """Weighted edit distance with optional adjacent-transposition moves.

    Parameters
    ----------
    a, b:
        The strings to align.
    insert_cost, delete_cost, substitute_cost:
        Costs of the three classic operations.  The defaults match ssdeep's
        ``edit_distn`` (1/1/2).
    transpose_cost:
        Cost of swapping two adjacent characters (Damerau move).  ``None``
        disables transpositions entirely, giving plain weighted Levenshtein.
    bound:
        Optional early-exit cost bound.  Distances up to ``bound`` are exact;
        once every cell of the two most recent DP rows exceeds ``bound`` (DP
        values only grow along any alignment path, and with transpositions a
        path can skip at most one row), the true distance provably exceeds
        ``bound`` too and the scan stops, returning that row minimum -- a
        lower bound on the true distance that is itself ``> bound``.  Callers
        that only compare the distance against a threshold ``<= bound`` (the
        fuzzy-hash scorer) therefore see unchanged results at a fraction of
        the cost for dissimilar strings.

    Returns
    -------
    int
        The minimal total cost of transforming ``a`` into ``b`` (exact when
        it is ``<= bound`` or ``bound`` is ``None``).
    """
    if a == b:
        return 0
    if not a:
        return len(b) * insert_cost
    if not b:
        return len(a) * delete_cost

    len_a, len_b = len(a), len(b)
    # Three rows are enough even with transpositions (we only look back two).
    prev2: list[int] = [0] * (len_b + 1)
    prev: list[int] = [j * insert_cost for j in range(len_b + 1)]
    current: list[int] = [0] * (len_b + 1)

    for i in range(1, len_a + 1):
        current[0] = i * delete_cost
        char_a = a[i - 1]
        for j in range(1, len_b + 1):
            char_b = b[j - 1]
            cost = 0 if char_a == char_b else substitute_cost
            best = min(
                prev[j] + delete_cost,       # delete a[i-1]
                current[j - 1] + insert_cost,  # insert b[j-1]
                prev[j - 1] + cost,          # match / substitute
            )
            if (
                transpose_cost is not None
                and i > 1
                and j > 1
                and char_a == b[j - 2]
                and a[i - 2] == char_b
            ):
                best = min(best, prev2[j - 2] + transpose_cost)
            current[j] = best
        if bound is not None:
            frontier = min(min(current), min(prev))
            if frontier > bound:
                return frontier
        prev2, prev, current = prev, current, prev2

    return prev[len_b]


def default_cost_distance(s1: str, s2: str) -> int:
    """The scorer's weighted edit distance at default costs, via the kernel.

    Equals the weighted Damerau-Levenshtein distance at the default 1/1/2/2
    costs: substitutions and transpositions cost exactly a delete+insert
    pair, so only the indel-distance ``len(s1) + len(s2) - 2*LCS`` remains.
    """
    return len(s1) + len(s2) - 2 * lcs_length(signature_masks(s1), len(s1), s2)


def has_common_substring(a: str, b: str, length: int = 7) -> bool:
    """True if ``a`` and ``b`` share any common substring of ``length`` chars.

    ssdeep refuses to score two signatures at all unless they share a 7-gram;
    this filters out coincidental low-distance matches between short unrelated
    signatures.
    """
    if len(a) < length or len(b) < length:
        return False
    grams = {a[i:i + length] for i in range(len(a) - length + 1)}
    return any(b[i:i + length] in grams for i in range(len(b) - length + 1))
