"""Window of the rolling hash used by the CTPH (ssdeep/spamsum) trigger.

The rolling hash is the "context trigger" in context-triggered piecewise
hashing: it is recomputed for every input byte over a sliding 7-byte window,
and whenever its value is congruent to ``blocksize - 1`` modulo the block
size, a piece boundary is emitted.  Because the value depends only on the last
7 bytes, inserting or deleting bytes early in a file only shifts the
boundaries locally -- which is exactly the property that makes the final
signature robust to small edits.

:mod:`repro.hashing.engine` evaluates it for a whole payload at once; the
per-byte ``roll_hash`` of spamsum/ssdeep it must equal is the test oracle's
(``tests/oracles/ctph.py``).  The window length is also the n-gram length of
the comparison's common-substring gate.
"""

ROLLING_WINDOW = 7
