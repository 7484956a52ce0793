"""Host-speed correction for the timed part of a run.

On a shared host the same job's round time moves by up to 2x within a
minute, in phases that last from a fraction of a second to tens of
seconds, and process CPU time moves with it.  A fixed probe job, timed
between the parts of every round and every ``INTERVAL_S`` inside a part
(from a timer signal), measures the host's speed next to the work.  Each
part's own time (probe time taken out) is divided by the mean probe time
seen next to it, and ``run_s`` is the sum over the parts of the median of
that ratio over the rounds, times ``PROBE_S``: seconds of a host on which
the probe takes 1 ms.  A change to the program moves the ratio; a change
of the host's speed moves the part and the probe alike.

Interpreter-bound code slows down more than numpy-bound code when the
host is busy (1.5x as much, in log time, on the machine in README.md), so
there are two probes, and each workload is timed against the one that
does its kind of work.
"""
from __future__ import annotations

import contextlib
import json
import math
import signal
import statistics
import time

import numpy as np
from scipy import integrate

PROBE_S = 1e-3          # nominal probe time: the unit of run_s
INTERVAL_S = 0.1        # probe period inside a long part


def _wave(x: float) -> float:
    return math.exp(-x) * math.cos(3.0 * x) / (1.0 + x * x)


def _outer(x: float) -> float:
    return 0.5 * _inner(x + 1.0) / (1.0 + x * x) + math.cos(x)


def _inner(x: float) -> float:
    return math.exp(-x) * math.log1p(x)


_RECORDS = [{"a": i, "b": [i, i * 0.5, str(i)], "c": {"x": i % 7}} for i in range(150)]
_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(2000)
_LARGE = _RNG.random(1 << 17)


def _python_probe():
    """Interpreter-bound work: quadrature over a nested Python integrand,
    JSON, sorting and formatting."""
    for _ in range(2):
        integrate.quad(_outer, 0.0, 40.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    text = json.dumps(_RECORDS)
    json.loads(text)
    sorted(_RECORDS, key=lambda d: (d["c"]["x"], -d["a"]))
    "".join(f"{d['a']:05d}:{d['b'][1]:.3f}" for d in _RECORDS)


def _numpy_probe():
    """numpy-bound work: small-array arithmetic, one pass over a large
    array, and a little quadrature."""
    for _ in range(4):
        integrate.quad(_wave, 0.0, 40.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    a = _SMALL
    for _ in range(40):
        a = np.sqrt(a * a + 1e-3)
    float(np.sqrt(_LARGE).sum())


PROBES = {"python": _python_probe, "numpy": _numpy_probe}


class SpeedMeter:
    """Times the parts of each round against a probe of the host's speed."""

    def __init__(self, probe: str):
        self._job = PROBES[probe]
        self._ticks: list[tuple[float, float]] = []     # (start, end) of timer probes
        self._busy = False
        self._last = math.nan
        self._old_handler = None
        self.ratios: dict[str, list[float]] = {}

    def _probe(self) -> float:
        t0 = time.perf_counter()
        self._job()
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._job()
            self._ticks.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def _boundary(self) -> float:
        self._busy = True
        try:
            return self._probe()
        finally:
            self._busy = False

    def start(self):
        self._boundary()                                  # warm the probe
        self._last = self._boundary()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    @contextlib.contextmanager
    def part(self, key: str):
        """Time one part of a round under ``key`` (the same keys every round)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._busy = True
            ticks = [b - a for a, b in self._ticks if a >= t0 and b <= t1]
            self._ticks.clear()
            before, self._last = self._last, self._boundary()
            own = (t1 - t0) - sum(ticks)
            probe = (before + self._last + sum(ticks)) / (2 + len(ticks))
            self.ratios.setdefault(key, []).append(own / probe)

    def run_s(self) -> float:
        """The round's time at the nominal probe speed: the sum over parts
        of the median ratio over rounds, times PROBE_S."""
        return PROBE_S * sum(statistics.median(v) for v in self.ratios.values())
