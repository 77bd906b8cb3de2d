"""The Fowler-Noll-Vo (FNV) constants of ssdeep's piece hash.

ssdeep hashes every *piece* of the input (the bytes between two trigger
points) with a 32-bit FNV-style hash, ``(state * prime) ^ byte``, seeded
with ``0x28021967`` and multiplied by the FNV prime ``0x01000193``; only the
low six bits of the final value are kept and mapped to a base64 character.
The engine (:mod:`repro.hashing.engine`) computes that hash six bits at a
time; the per-byte loop is the test oracle in ``tests/oracles/ctph.py``.
"""

#: Seed used by spamsum/ssdeep for piece hashes ("HASH_INIT").
SSDEEP_HASH_INIT = 0x28021967
#: 32-bit FNV prime ("HASH_PRIME" in ssdeep).
FNV32_PRIME = 0x01000193
