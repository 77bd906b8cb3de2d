"""Developer tooling that keeps the repository's invariants mechanical.

The reproduction's correctness rests on rules no runtime test states
explicitly: one-seed determinism, byte-identical A/B reference paths,
config knobs declared once and documented, fork-safe module state under the
collector's hashing pool, and a counter vocabulary that the result views and
the docs both agree on.  :mod:`repro.devtools.lint`
turns those tribal rules into AST-level checks that gate CI.
"""
