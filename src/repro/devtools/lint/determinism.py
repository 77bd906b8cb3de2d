"""Determinism rules: one seed must reproduce every run.

The simulation (:mod:`repro.hpcsim`), the workload drivers
(:mod:`repro.workload`), the fault plans (:mod:`repro.faults`) and the
transport layer (:mod:`repro.transport`) are all contractually deterministic:
campaign results, fault injections and loss decisions replay bit-identically
from one seed.  A single call to the process-global ``random`` module, to
``uuid.uuid4`` or to a wall clock silently breaks that contract -- the run
still *works*, it just stops being reproducible, which is exactly the kind of
bug that ships.  These rules ban the entropy and wall-clock entry points in
the deterministic packages:

``determinism/unseeded-random``
    Module-level ``random.<fn>()`` calls (they draw from the interpreter-wide
    RNG) and ``random.Random()`` constructed without a seed.  Seeded
    construction -- ``random.Random(seed)`` -- is fine; so is
    :class:`repro.util.rng.SeededRNG`, the preferred door.
``determinism/global-seed``
    ``random.seed(...)``: reseeding the global RNG perturbs every *other*
    unseeded draw in the process, the least debuggable variant.
``determinism/entropy``
    ``uuid.uuid1``/``uuid.uuid4``, ``os.urandom`` and anything from
    ``secrets`` -- OS entropy, unreplayable by definition.
``determinism/wall-clock``
    ``time.time``/``time.time_ns``, ``datetime.now``/``utcnow``,
    ``date.today``: wall-clock reads.  The simulation has its own clock
    (:class:`repro.hpcsim.filesystem`'s), and profiling belongs in the
    pipeline benchmark (``benchmarks/pipeline``), which times the package
    from outside.

Scope: packages listed in :data:`DEFAULT_SCOPE`.  Monotonic reads
(``time.monotonic``, ``time.perf_counter``) are *not* flagged -- they time
out stalls and never feed data paths.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import (Checker, Finding, SourceModule,
                                        register_checker)

#: Packages under the one-seed determinism contract.
DEFAULT_SCOPE = ("repro.hpcsim", "repro.workload", "repro.faults",
                 "repro.transport")

#: ``random`` module functions that draw from the process-global RNG.
GLOBAL_RANDOM_FUNCTIONS = frozenset({
    "random", "randint", "randrange", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "binomialvariate",
})

#: ``(module, attribute)`` calls that read OS entropy.
ENTROPY_CALLS = frozenset({("uuid", "uuid1"), ("uuid", "uuid4"), ("os", "urandom")})

#: ``(module-ish value, attribute)`` calls that read the wall clock.
WALL_CLOCK_ATTRS = frozenset({("time", "time"), ("time", "time_ns"),
                              ("datetime", "now"), ("datetime", "utcnow"),
                              ("date", "today")})


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismChecker(Checker):
    """Flag unseeded randomness, OS entropy and wall-clock reads."""

    family = "determinism"

    def __init__(self, scope: tuple[str, ...] = DEFAULT_SCOPE) -> None:
        self.scope = scope

    def _in_scope(self, module: SourceModule) -> bool:
        return any(module.module == package or module.module.startswith(package + ".")
                   for package in self.scope)

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not self._in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            finding = self._classify(dotted, node)
            if finding is not None:
                rule, message = finding
                yield Finding(rule=f"{self.family}/{rule}", message=message,
                              path=module.rel, line=node.lineno,
                              col=node.col_offset)

    def _classify(self, dotted: str, call: ast.Call) -> tuple[str, str] | None:
        head, _, tail = dotted.rpartition(".")
        if dotted == "random.seed":
            return ("global-seed",
                    "random.seed() reseeds the interpreter-global RNG; "
                    "construct a seeded random.Random or SeededRNG instead")
        if head == "random" and tail in GLOBAL_RANDOM_FUNCTIONS:
            return ("unseeded-random",
                    f"random.{tail}() draws from the process-global RNG; use a "
                    "SeededRNG fork (repro.util.rng) so one seed replays the run")
        if dotted == "random.Random" and not call.args and not call.keywords:
            return ("unseeded-random",
                    "random.Random() without a seed is seeded from OS entropy; "
                    "pass an explicit seed")
        if head.rpartition(".")[2] in ("uuid", "os") and (
                head.rpartition(".")[2], tail) in ENTROPY_CALLS:
            return ("entropy",
                    f"{dotted}() reads OS entropy and can never replay; derive "
                    "ids from the seeded RNG or a content hash")
        if head == "secrets" or dotted == "secrets":
            return ("entropy",
                    "the secrets module is OS entropy by design; it has no "
                    "place in a deterministic simulation")
        if (head.rpartition(".")[2], tail) in WALL_CLOCK_ATTRS or dotted in (
                "time.time", "time.time_ns"):
            return ("wall-clock",
                    f"{dotted}() reads the wall clock; simulated time comes "
                    "from the cluster clock, profiling belongs in benchmarks/pipeline")
        return None


register_checker(DeterminismChecker)
