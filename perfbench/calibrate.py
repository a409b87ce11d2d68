"""Host-speed calibration kernel.

The machines this benchmark runs on are shared: the speed of one core
drifts by 20% and more, both between runs and within one second, as
other tenants load the host.  To compare two commits on such a host,
``Calibrator`` runs a small fixed kernel every ``INTERVAL_S`` of wall time
from a SIGALRM handler, also in the middle of an op.  An op's time minus
the kernel time inside it, divided by the mean kernel time inside it,
and scaled to ``NOMINAL_SAMPLE_S``, is its time in nominal seconds: "a
second on a host where one kernel sample takes ``NOMINAL_SAMPLE_S``".
Samples taken only between ops tracked a 4-second sweep about three
times worse than samples taken inside it.

The kernel is a frozen miniature of a simulated tick: a 25-rule min/max
inference over a 1001-point output grid, a 125-rule product/centre-
average inference, a small record per result and the records written as
CSV text, all written here from scratch.  A kernel with the program's own
mix of dict lookups, small objects, numpy reductions and string building
slows down together with the program when the host does; on a 2-core
shared host the inference alone tracked a sweep half as well, and a
generic arithmetic loop worse still.  The kernel never
imports fearsim, so a change to the program cannot change it.
"""

from __future__ import annotations

import contextlib
import signal
import time
from bisect import bisect_left

import numpy as np

# Typical seconds of one kernel sample on a 2-core reference host
# (Python 3.11, numpy 2.4); only a scale, so reported times read as seconds.
NOMINAL_SAMPLE_S = 0.0015
INTERVAL_S = 0.05
# Ops too short to hold this many samples use the latest ones instead.
MIN_SAMPLES = 4

_RESOLUTION = 1001
_PEAKS = (0.0, 0.25, 0.5, 0.75, 1.0)


class _Triangle:
    __slots__ = ("left", "peak", "right")

    def __init__(self, left: float, peak: float, right: float):
        self.left, self.peak, self.right = left, peak, right

    def __call__(self, x: float) -> float:
        if x == self.peak:
            return 1.0
        if x <= self.left or x >= self.right:
            return 0.0
        if x < self.peak:
            return (x - self.left) / (self.peak - self.left)
        return (self.right - x) / (self.right - self.peak)


_TERMS = {i: _Triangle(_PEAKS[max(i - 1, 0)], p, _PEAKS[min(i + 1, 4)]) for i, p in enumerate(_PEAKS)}
_GRID = np.linspace(0.0, 1.0, _RESOLUTION)
_ROWS = np.vstack([np.array([_TERMS[i](x) for x in _GRID]) for i in range(5)])
_CENTROIDS = [float((_ROWS[i] * _GRID).sum() / _ROWS[i].sum()) for i in range(5)]
_RULES2 = [(((0, a), (1, b)), min(4, max(0, 4 - a + b // 2))) for a in range(5) for b in range(5)]
_RULES3 = [(((0, u), (1, lk), (2, g)), 0 if u == 0 else max(0, min(4, lk + (u + g + 1) // 2 - 3)))
           for u in range(5) for lk in range(5) for g in range(5)]


def _memberships(values) -> list[dict[int, float]]:
    return [{i: term(x) for i, term in _TERMS.items()} for x in values]


def _minmax(x: float, y: float) -> float:
    member = _memberships((x, y))
    strongest: dict[int, float] = {}
    for antecedents, consequent in _RULES2:
        strength = min(member[var][term] for var, term in antecedents)
        if strength > strongest.get(consequent, 0.0):
            strongest[consequent] = strength
    aggregate = np.zeros(_RESOLUTION)
    for term, strength in strongest.items():
        np.maximum(aggregate, np.minimum(_ROWS[term], strength), out=aggregate)
    if aggregate.min() < 0.0 or aggregate.max() > 1.0:
        raise ArithmeticError("membership outside [0, 1]")
    grid = np.linspace(0.0, 1.0, _RESOLUTION)
    return float((grid * aggregate).sum() / aggregate.sum())


def _additive(u: float, lk: float, g: float) -> float:
    member = _memberships((u, lk, g))
    weight = moment = 0.0
    for antecedents, consequent in _RULES3:
        w = 1.0
        for var, term in antecedents:
            w *= member[var][term]
            if w == 0.0:
                break
        if w:
            weight += w
            moment += w * _CENTROIDS[consequent]
    return moment / weight


class _Record:
    __slots__ = ("tick", "ssd", "gap", "display", "level", "speed", "target")

    def __init__(self, tick, ssd, gap, display, level, speed, target):
        self.tick, self.ssd, self.gap, self.display = tick, ssd, gap, display
        self.level, self.speed, self.target = level, speed, target


def _kernel() -> int:
    """Fifteen inferences, each kept as a small record, then all written as CSV text."""
    records = []
    acc = 0.0
    for i in range(15):
        likelihood = _minmax(0.013 * (i % 23), 0.1 + 0.017 * (i % 31))
        acc += _additive(1.0, likelihood, 0.9)
        records.append(_Record(i, acc * 0.5, likelihood, 49, "Medium", 10.0 + i * 0.03, 10.5))
    text = "\n".join(f"{r.tick},{r.ssd!r},{r.gap!r},{r.display},{r.level},{r.speed!r},{r.target!r}"
                     for r in records)
    return len(text)


def sample(count: int) -> float:
    """Mean seconds of ``count`` consecutive kernel samples."""
    start = time.perf_counter()
    for _ in range(count):
        _kernel()
    return (time.perf_counter() - start) / count


class Calibrator:
    """Samples the kernel every ``INTERVAL_S`` while ``active()``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            for _ in range(MIN_SAMPLES):
                self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of the work between two perf_counter readings.

        Samples run in the main thread, so each lies wholly inside or
        wholly outside [start, end].
        """
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        inside = self.durations[first:last]
        window = inside if len(inside) >= MIN_SAMPLES else self.durations[max(0, last - MIN_SAMPLES):last]
        return (end - start - sum(inside)) * NOMINAL_SAMPLE_S * len(window) / sum(window)
