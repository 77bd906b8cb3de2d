"""AST-based static analysis enforcing the repository's invariants.

Five rule families, each born from a bug that actually shipped here:

* ``determinism`` -- no unseeded randomness, OS entropy or wall-clock reads
  in the one-seed-deterministic packages (:mod:`.determinism`);
* ``concurrency`` -- resettable module caches, no bare or silently
  swallowed exception handlers (:mod:`.concurrency`);
* ``knobs`` -- config hierarchy / consumption / docs knob-table parity,
  checked by dataclass introspection (:mod:`.knobs`);
* ``counters`` -- every surfaced statistics key declared once in
  :mod:`repro.util.counters` (:mod:`.counters`);
* ``rollups`` -- every ``counters``-mapping increment site (the tiered
  store's hot-path bumps, invisible to the statistics-function scan) uses
  a registered literal key (:mod:`.rollups`).

Run ``python -m repro.devtools.lint src/repro`` (or
``scripts/lint_repro.py``); silence a deliberate violation with
``# repro: allow[rule-id] -- reason``.  See ``docs/devtools.md``.
"""

from repro.devtools.lint.engine import (Checker, Finding, LintResult,
                                        registered_families, run_lint)
from repro.devtools.lint.report import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "registered_families",
    "render_json",
    "render_text",
    "run_lint",
]
