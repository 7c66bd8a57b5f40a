"""Instrumentation for the layerbridge benchmark, applied from outside.

The program under test is never edited. The benchmark swaps attributes of
already-imported modules and classes for timing wrappers (``Patcher``) and
puts the originals back afterwards. Two kinds of wrapper exist:

- ``OpClock`` is all an untraced run installs: one timestamp when each op
  ends, plus one when each op loop ("phase") starts. Ops run back to back in
  a closed loop, so an op's latency is the gap to the previous timestamp.
- ``Tracer`` times calls into each module's public functions for the traced
  run. Spans nest; a span's self time is its duration minus the durations of
  the spans it directly contains, so self times sum to the root spans' wall.

This module imports nothing from the program and nothing outside the
standard library, so the benchmark driver can load it without numpy.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# a percentile is reported only with at least this many samples above it
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` unless at least ``MIN_TAIL`` samples lie above the
    returned rank, so p90 needs at least 100 samples.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} above it; need {MIN_TAIL}")
    return sorted(values)[rank - 1]


class SetupReached(BaseException):
    """Raised by a probing ``OpClock`` when the first op is about to start.

    A ``BaseException`` so the program's own ``except Exception`` handlers
    let it through to the benchmark.
    """


class Patcher:
    """Replaces attributes defined directly on a module or class."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; ``KeyError`` if absent."""
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self.patched.append((owner, attr, original))

    def names(self) -> list[str]:
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self.patched]

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


class OpClock:
    """Op boundaries of an untraced run.

    ``ends`` holds one clock reading per completed op. ``phases`` holds
    ``(index of the phase's first op, start time, payload)``; ``payload`` is
    whatever the phase hook was given, kept for counting rows and tokens
    after the run. With ``probe`` set, the first phase start raises
    ``SetupReached`` instead of letting the op loop run.
    """

    def __init__(self, clock=time.perf_counter, keep_results: bool = False, probe: bool = False):
        self.clock = clock
        self.keep_results = keep_results
        self.probe = probe
        self.ends: list[float] = []
        self.results: list = []
        self.phases: list[tuple[int, float, object]] = []

    def op_end(self, fn):
        ends, results, clock = self.ends, self.results, self.clock
        if self.keep_results:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                ends.append(clock())
                results.append(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                ends.append(clock())
                return result
        return wrapper

    def _start_phase(self, payload) -> None:
        self.phases.append((len(self.ends), self.clock(), payload))
        if self.probe:
            raise SetupReached

    def phase_before(self, fn):
        """The phase starts when ``fn`` is entered; payload is its arguments."""
        def wrapper(*args, **kwargs):
            self._start_phase(args)
            return fn(*args, **kwargs)
        return wrapper

    def phase_after(self, fn):
        """The phase starts when ``fn`` returns; payload is its result."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._start_phase(result)
            return result
        return wrapper

    def durations(self) -> list[float]:
        """Latency of every completed op, in seconds."""
        out = []
        bounds = [first for first, _, _ in self.phases[1:]] + [len(self.ends)]
        for (first, start, _), stop in zip(self.phases, bounds):
            prev = start
            for t in self.ends[first:stop]:
                out.append(t - prev)
                prev = t
        return out


class Tracer:
    """Nested spans aggregated by name into self time, total time and calls.

    ``wall_s`` is the summed duration of root spans; the self times of all
    spans add up to it. ``counts`` holds counters that ``after`` callbacks
    fill from call arguments and results.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.inside: dict[str, int] = defaultdict(int)
        # child-time accumulator of each open span; the bottom slot sums roots
        self._open = [0.0]

    @property
    def wall_s(self) -> float:
        return self._open[0]

    def timed(self, name: str, fn, after=None, track: bool = False):
        """Wrap ``fn`` in a span called ``name``.

        ``after(args, kwargs, result)`` runs inside the span once ``fn``
        returns. With ``track``, ``inside[name]`` counts open calls, so other
        callbacks can tell whether they run within this span.
        """
        clock, open_ = self.clock, self._open
        self_s, total_s, calls, inside = self.self_s, self.total_s, self.calls, self.inside

        def wrapper(*args, **kwargs):
            if track:
                inside[name] += 1
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                children = open_.pop()
                self_s[name] += elapsed - children
                total_s[name] += elapsed
                calls[name] += 1
                open_[-1] += elapsed
                if track:
                    inside[name] -= 1

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` once inside a span called ``name``."""
        return self.timed(name, fn)(*args, **kwargs)
