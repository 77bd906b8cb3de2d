"""Outside-in span tracing and the statistics the benchmark reports.

A :class:`Tracer` keeps a span stack.  Every span belongs to a *layer* (a
``src/repro`` module name, optionally dotted into a sub-layer such as
``db.tiered``); a span's self time is its duration minus the time its child
spans cover, so the self times of all layers sum to the root span's
wall-clock.  Spans are aggregated per ``(layer, parent layer)`` in memory --
a campaign emits tens of thousands of per-datagram spans -- while the few
per-process and per-refresh samples the percentiles need are kept raw.

Spans are recorded from the benchmark's side only: :meth:`Tracer.wrap`
assigns a timing closure over a bound public method of a live instance, and
:meth:`Tracer.span` brackets a call the benchmark itself makes.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Percentiles the report may quote, lowest first.
PERCENTILE_LADDER: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


class Tracer:
    """Span stack with per-(layer, parent) aggregation."""

    enabled = True

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []          # frames: [layer, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        #: exclusive seconds per (layer, parent layer); "" is "no parent"
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        #: inclusive seconds per layer, outermost spans only (re-entry safe)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: raw samples by name (per-process, per-refresh, one-off durations)
        self.samples: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, layer: str) -> list[Any]:
        frame = [layer, 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _close(self, frame: list[Any], duration: float) -> None:
        layer = frame[0]
        self._stack.pop()
        parent = ""
        if self._stack:
            outer = self._stack[-1]
            outer[1] += duration
            parent = outer[0]
        key = (layer, parent)
        self.self_s[key] += duration - frame[1]
        self.calls[key] += 1
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.inclusive_s[layer] += duration

    @contextmanager
    def span(self, layer: str, sample: str | None = None) -> Iterator[None]:
        """Bracket a call the benchmark makes into ``layer``.

        ``sample`` additionally keeps the span's inclusive duration (seconds)
        as a raw sample under that name.
        """
        frame = self._open(layer)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self._close(frame, duration)
            if sample is not None:
                self.samples[sample].append(duration)

    def timed(self, function: Callable[..., Any], layer: str,
              sample: str | None = None) -> Callable[..., Any]:
        """``function`` wrapped in a span of ``layer`` (exception safe)."""
        open_span, close_span, samples = self._open, self._close, self.samples

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = open_span(layer)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                close_span(frame, duration)
                if sample is not None:
                    samples[sample].append(duration)

        return traced

    def wrap(self, instance: object, method: str, layer: str,
             sample: str | None = None) -> None:
        """Assign a timing closure over ``instance.method`` (instance only)."""
        setattr(instance, method, self.timed(getattr(instance, method), layer, sample))

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def layer_self(self, layer: str) -> float:
        """Exclusive seconds of ``layer`` and its dotted sub-layers."""
        prefix = layer + "."
        return sum(seconds for (name, _parent), seconds in self.self_s.items()
                   if name == layer or name.startswith(prefix))

    def total_self(self) -> float:
        """Sum of all self times == inclusive time of the root spans."""
        return sum(self.self_s.values())

    def budget(self) -> list[dict[str, Any]]:
        """The (layer, parent) table, most expensive first."""
        rows = [{"layer": layer, "parent": parent, "self_s": seconds,
                 "calls": self.calls[(layer, parent)]}
                for (layer, parent), seconds in self.self_s.items()]
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows


class NullTracer(Tracer):
    """Tracing off: wraps nothing, spans cost one generator frame."""

    enabled = False

    @contextmanager
    def span(self, layer: str, sample: str | None = None) -> Iterator[None]:
        yield

    def timed(self, function: Callable[..., Any], layer: str,
              sample: str | None = None) -> Callable[..., Any]:
        return function

    def wrap(self, instance: object, method: str, layer: str,
             sample: str | None = None) -> None:
        return None


# ---------------------------------------------------------------------- #
# end-to-end durations, beside a running track of the host's speed
# ---------------------------------------------------------------------- #
#: A duration that moves datagrams is probed inside after every so many.
PROBE_EVERY_DATAGRAMS = 400
#: The reference host speed, as the time one probe takes at it: end-to-end
#: durations are reported at this speed, whatever host they were taken on.
#: (It is what the probe takes, undisturbed, on the box the first baseline
#: was taken on, so that on a calm hour there ``value`` and ``clock`` agree.)
PROBE_REFERENCE_MS = 1.2
#: A duration is corrected by the probes from the last one at least this long
#: before it began to the first one at least this long after it ended.
PROBE_MARGIN_S = 0.02

_STRIDE_TARGET = list(range(100_000))


def probe_ms() -> float:
    """A fixed piece of pure-Python work; its duration only changes with the host.

    Three parts, because a host that is busy elsewhere does not slow all code
    alike: arithmetic in a tight loop, allocating, sorting and joining small
    objects (what most of ``src/repro`` does), and a strided walk over 100k
    list slots.  Measured on the box this was written on, the mix follows the
    work's slowdown about twice as closely as the loop alone (``identify_s``,
    a 9 ms duration, over groups of repetitions of one seed: 8-12 % apart
    corrected by the loop, 2-7 % by the mix).

    The probe runs in the measured process, so it must not care what that
    process has on its heap: its fastest tenth takes 1.34 ms in a fresh
    interpreter, 1.31 ms after a campaign has run in it and 1.30 ms when
    64 MB are rewritten and every record is walked before each probe.
    """
    # The second part allocates 7 500 containers.  With the collector on, that
    # would make the probe pay for collections whose cost grows with the heap
    # of the program under test; everything it allocates is freed again, so
    # the collector's counts are the same after the probe as before.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for value in range(8_000):
            total += value * value % 7
        items = [(index, str(index), {"a": index}) for index in range(2_500)]
        items.sort(key=lambda item: item[1])
        "|".join(item[1] for item in items).encode()
        sum(_STRIDE_TARGET[::7])
        return (perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()


class Laps:
    """A repetition's durations by span, beside a track of the host's speed.

    ``lap(span)`` closes the duration that began at the previous lap (or
    ``restart``), probes the host and starts the next duration after the
    probe; ``probe_inside()`` probes in the middle of a long duration.  Probe
    time is in no duration.  The probes run under a ``trace.probe`` span of
    ``tracer``, so a traced budget still sums to the wall-clock: every lap
    plus ``between_ms``.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        #: wall-clock in no duration: the probes and this class's bookkeeping
        self.between_ms = 0.0
        self._windows: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._probe_times: list[float] = []
        self._probe_ms: list[float] = []
        self._probe = (tracer or NullTracer()).timed(probe_ms, "trace.probe")
        self.restart()

    def _probed(self, since: float) -> None:
        """Probe the host; the next duration starts when this returns."""
        begin = perf_counter()
        self._probe_ms.append(self._probe())
        self._start = perf_counter()
        self._probe_times.append((begin + self._start) / 2)
        self.between_ms += (self._start - since) * 1e3

    def restart(self) -> None:
        self._inside_s = 0.0              # wall-clock the inside probes took
        self._probed(perf_counter())

    def probe_inside(self) -> None:
        begin, start = perf_counter(), self._start
        self._probed(begin)
        self._inside_s += self._start - begin
        self._start = start

    def lap(self, span: str) -> None:
        end = perf_counter()
        self.spans[span].append((end - self._start - self._inside_s) * 1e3)
        self._windows[span].append((self._start, end))
        self._inside_s = 0.0
        self._probed(end)

    @property
    def probes(self) -> dict[str, list[float]]:
        """Per duration, the median of the probes (ms) around and inside it."""
        times, values = self._probe_times, self._probe_ms
        means: dict[str, list[float]] = {}
        for span, windows in self._windows.items():
            means[span] = []
            for start, end in windows:
                low = max(0, bisect_right(times, start - PROBE_MARGIN_S) - 1)
                high = bisect_left(times, end + PROBE_MARGIN_S) + 1
                means[span].append(statistics.median(values[low:high]))
        return means

    def corrected(self) -> dict[str, list[float]]:
        """The durations at the reference host speed (see :func:`corrected_spans`)."""
        return corrected_spans(self.spans, self.probes)


def corrected_spans(spans: dict[str, list[float]],
                    probes: dict[str, list[float]]) -> dict[str, list[float]]:
    """Durations at the reference host speed.

    Each duration is divided by the slowdown the probes around it saw.  The
    box this was written on shares its cores with other tenants: its speed
    swings by a quarter within seconds and stays 1.3 to 2 times slower for
    hours, which no median over a 20 s run can undo, while fixed work run
    right beside a duration slows down with it (ten runs of ``replay`` on ten
    seeds in a busy hour: ``campaign_wall_s`` 38 % apart as the clock read,
    4.3 % at the reference speed).
    """
    return {span: [ms * PROBE_REFERENCE_MS / probe
                   for ms, probe in zip(durations, probes[span], strict=True)]
            for span, durations in spans.items()}


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[min(len(ordered), int(rank)) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``p`` percentile."""
    return count - min(count, max(1, int(-(-count * p // 100))))


def highest_supported_percentile(count: int, minimum_beyond: int = 10) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    supported = [p for p in PERCENTILE_LADDER
                 if samples_beyond(count, p) >= minimum_beyond]
    return supported[-1] if supported else None


def summarize(values: list[float]) -> dict[str, float | int]:
    """Median, quartiles, minimum and count of per-repetition values."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
