"""Reference-speed timing.

The core under this benchmark changes speed by up to 2x over seconds, and
within a single 1.5-second call, so a raw time mixes the program's cost with
the core's state. A fixed reference computation is timed right before and
right after each timed stage, and every SAMPLE_PERIOD_S of wall time during
it. The stage's time, less the time the readings took, is scaled to a core
where the reference takes exactly REF_NOMINAL_S: by REF_NOMINAL_S times the
mean of 1 / reading, the time average of the core's speed. The reference is
single-threaded by construction: interpreted Python plus numpy calls on
64-element vectors, far below the sizes at which OpenBLAS starts its thread
pool.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Time of one reference() on this benchmark's reference core. Chosen close to
# the fast state of a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4), so scaled
# seconds read close to raw seconds there.
REF_NOMINAL_S = 2.5e-4

_REPEATS = 3

# Readings during a stage come from a SIGALRM handler, which Python runs in
# the main thread between bytecodes: within a long call into lpduet, at the
# next return from C code.
SAMPLE_PERIOD_S = 0.05


def _kernel() -> float:
    v = np.arange(64.0)
    acc = 0
    for i in range(120):
        v = np.sqrt(v * 1.0001 + 1.0)
        acc += (i * 7) % 13
    return acc + float(v[-1])


def reference() -> float:
    """Seconds one reference kernel takes now: the median of three runs."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[_REPEATS // 2]


def speed_factor(refs) -> float:
    """Seconds at reference speed per raw second, from readings spread
    evenly over the timed span."""
    return REF_NOMINAL_S * statistics.fmean(1.0 / r for r in refs)


class Sampler:
    """Reference readings taken every SAMPLE_PERIOD_S while ``active``."""

    def __init__(self):
        self.refs: list[float] = []
        self.spent = 0.0  # seconds the readings took
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.refs.append(reference())
        self.spent += time.perf_counter() - t0
        self._busy = False

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Bracket:
    """Times consecutive stages of one operation at reference speed.

    The reference runs once before the first stage, during every stage and
    once after it, so each stage sits between two reference measurements.
    ``raw`` and ``scaled`` map stage names to seconds; ``refs`` keeps every
    reference time measured.
    """

    def __init__(self):
        self.refs = [reference()]
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        sampler = Sampler()
        t0 = time.perf_counter()
        with sampler.active():
            yield
        raw = time.perf_counter() - t0 - sampler.spent
        ref = reference()
        factor = speed_factor([self.refs[-1], *sampler.refs, ref])
        self.refs += [*sampler.refs, ref]
        self.raw[name] = self.raw.get(name, 0.0) + raw
        self.scaled[name] = self.scaled.get(name, 0.0) + raw * factor

    def total(self) -> float:
        """Seconds at reference speed over all stages."""
        return sum(self.scaled.values())
