"""Hashing substrate for the SIREN reproduction.

The paper relies on two hash families:

* **SSDeep** context-triggered piecewise hashing (CTPH) producing *fuzzy
  hashes* whose pairwise comparison yields a 0-100 similarity score.  SIREN
  fuzzy-hashes the raw executable, its printable strings, its global ELF
  symbols, and the module/compiler/library/memory-map lists.
* **xxHash** (``XXH3_128bits`` in the paper) as a fast non-cryptographic hash
  of the executable path, used purely to disambiguate PID collisions in the
  database.

Both are implemented here from scratch in pure Python (the target environment
has neither ``libfuzzy`` nor ``xxHash`` bindings).  The CTPH implementation
follows the published spamsum/ssdeep algorithm (Kornblum 2006): a 7-byte
rolling hash triggers piece boundaries, each piece is hashed with FNV, and the
signature is a base64 string at two block sizes; comparison removes long
character runs, requires a common 7-gram, and converts a weighted
Damerau-Levenshtein distance into a 0-100 match score.
"""

from repro.hashing.compare_engine import (
    CompareCache,
    NormalizedDigest,
    lcs_length,
    lcs_length_many,
    normalize_digest,
)
from repro.hashing.fnv import fnv1_32, fnv1a_32, fnv1a_64, sum_hash
from repro.hashing.ssdeep import (
    FuzzyHash,
    FuzzyHasher,
    compare,
    fuzzy_hash,
    fuzzy_hash_text,
)
from repro.hashing.xxhash import xxh32, xxh64, xxh128_hex

__all__ = [
    "FuzzyHash",
    "FuzzyHasher",
    "CompareCache",
    "NormalizedDigest",
    "lcs_length",
    "lcs_length_many",
    "normalize_digest",
    "fuzzy_hash",
    "fuzzy_hash_text",
    "compare",
    "fnv1_32",
    "fnv1a_32",
    "fnv1a_64",
    "sum_hash",
    "xxh32",
    "xxh64",
    "xxh128_hex",
]
