"""Lightweight stage timing for profiling the collection pipeline.

The campaign driver, cluster simulator, collector hooks, sender and ingest
spine all want to answer one question -- *where does the wall-clock go?* --
without dragging in a real profiler (10-50x slowdown) or littering call
sites with ``time.perf_counter()`` bookkeeping.  :class:`StageTimer` is the
shared stopwatch: named stages, monotonic clock, re-entrant nesting, and a
plain-dict snapshot.

Semantics
---------
- Stage values are *inclusive* wall seconds: a stage's total includes any
  differently-named stages entered while it is open.  The campaign's stage
  names form a known nesting (``campaign.jobs`` contains ``cluster.run_job``
  contains ``collect.*`` contains ``transport.*``), so exclusive times are
  derived by subtraction where needed -- the timer itself stays dumb.
- Re-entering a stage that is already open on the same timer does not
  double-count: only the outermost section records elapsed time (the call
  count still increments), which keeps recursive or self-nesting call sites
  honest.
- :data:`NULL_TIMER` is a process-wide disabled singleton whose sections
  compile down to two attribute checks and a no-op context manager; hot
  paths keep an unconditional ``with timer.section(...)`` and pay nothing
  measurable when profiling is off.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple


class _NullSection:
    """Shared no-op context manager handed out by disabled timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """One open stage; records on exit only when it is the outermost entry."""

    __slots__ = ("_timer", "_name", "_start")

    def __init__(self, timer: "StageTimer", name: str) -> None:
        self._timer = timer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Section":
        timer = self._timer
        depth = timer._depth.get(self._name, 0)
        timer._depth[self._name] = depth + 1
        if depth == 0:
            self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        timer = self._timer
        name = self._name
        depth = timer._depth[name] - 1
        timer._depth[name] = depth
        if depth == 0:
            elapsed = perf_counter() - self._start
        else:
            elapsed = 0.0
        seconds, calls = timer._stages.get(name, (0.0, 0))
        timer._stages[name] = (seconds + elapsed, calls + 1)


class StageTimer:
    """Accumulates wall seconds and call counts per named stage.

    A timer is cheap enough to leave permanently wired: the enabled-path
    cost is one dict update per section entry/exit plus two
    ``perf_counter()`` calls, well under a microsecond.  Construct with
    ``enabled=False`` (or use :data:`NULL_TIMER`) to reduce every section
    to a shared no-op.
    """

    __slots__ = ("enabled", "_stages", "_depth")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # name -> (inclusive seconds, call count)
        self._stages: Dict[str, Tuple[float, int]] = {}
        # name -> currently-open nesting depth
        self._depth: Dict[str, int] = {}

    def section(self, name: str):
        """Context manager timing one entry of stage ``name``."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured time into a stage."""
        if not self.enabled:
            return
        total, count = self._stages.get(name, (0.0, 0))
        self._stages[name] = (total + seconds, count + calls)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot: ``{stage: {"seconds": s, "calls": n}}``.

        The result is picklable and JSON-serialisable; stages are sorted by
        descending inclusive time so profiles read top-cost-first.
        """
        ordered = sorted(self._stages.items(), key=lambda kv: -kv[1][0])
        return {name: {"seconds": seconds, "calls": calls}
                for name, (seconds, calls) in ordered}

    def seconds(self, name: str) -> float:
        """Inclusive seconds recorded for ``name`` (0.0 if never entered)."""
        return self._stages.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        """Completed section count for ``name`` (0 if never entered)."""
        return self._stages.get(name, (0.0, 0))[1]

    def clear(self) -> None:
        """Drop all recorded stages (open sections keep their start times)."""
        self._stages.clear()


NULL_TIMER = StageTimer(enabled=False)
"""Process-wide disabled timer for call sites that default to 'off'."""
