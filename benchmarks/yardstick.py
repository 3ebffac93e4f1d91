"""The host's speed, sampled while a pass runs, from code that touches no
fractalspin code.

This host runs the same code at speeds up to 1.8x apart, changing every
few seconds and for minutes at a time (see README, "Noise on this
machine").  A timed pass therefore measures the code and the host's
speed together.  While the worker times a pass, a ``Speedometer``
interrupts it every ``INTERVAL_S`` (SIGALRM) and times one small fixed
kernel; a sample's slowness is the kernel's time over its time on the
reference host.  wall_s is the median over passes of

    (pass time - time spent in samples) / mean slowness of its samples

that is, the program's time at the reference host's speed.  The samples
take about 2% of a pass and are subtracted from it.  A set-up probe
times ``PROBE_SAMPLES`` kernel calls right after it is ready, and its
start-to-ready time is divided by their mean slowness.

There are two kernels: ``objects``, products of a small Python object
with float arithmetic (like algebra, fields, velocity and the per-step
and per-segment loops), and ``arrays``, numpy passes over 5000 floats
(like vectorised simulate).  The host's slow periods slow vectorised
numpy less than the interpreter, so each workload names the kernel that
matches its own work.  The kernels use neither the seed nor the
program, so a change to fractalspin does not move them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
PROBE_SAMPLES = 40
PROBE_KINDS = ("objects",)  # interpreter start and imports are Python work

_FLOATS = np.linspace(0.0, 1.0, 5_000)


class _Pair:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __mul__(self, other):
        return _Pair(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)


def _objects():
    step, acc = _Pair(0.9999, 0.001), _Pair(1.0, 0.0)
    for _ in range(1_500):
        acc = acc * step
    return acc


def _arrays():
    a = _FLOATS
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    return a


#: kernel -> (function, median seconds of one call on the reference
#: host: 2 virtual CPUs of an Intel Xeon guest, python 3.11.7, numpy 2.4.6)
KERNELS = {"objects": (_objects, 0.0009), "arrays": (_arrays, 0.0006)}


def sample(kinds) -> tuple:
    """(seconds, slowness) of one call of each kernel in kinds."""
    t0 = time.perf_counter()
    for kind in kinds:
        KERNELS[kind][0]()
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed / sum(KERNELS[k][1] for k in kinds)


def probe_slowness() -> float:
    """Mean slowness over PROBE_SAMPLES samples taken one after another."""
    return statistics.mean(sample(PROBE_KINDS)[1]
                           for _ in range(PROBE_SAMPLES))


class Speedometer:
    """Samples the host's slowness every INTERVAL_S inside a with block.

    The samples run in a SIGALRM handler, that is, in the main thread
    between two Python bytecodes of whatever the block is doing (after a
    long numpy call returns, if one is running).  ``busy_s`` is the time
    spent in samples, ``slowness`` their slowness.
    """

    def __init__(self, kinds):
        self.kinds = kinds
        self.slowness = []
        self.busy_s = 0.0
        self._in_sample = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._in_sample:
            return
        self._in_sample = True
        try:
            elapsed, slowness = sample(self.kinds)
            self.busy_s += elapsed
            self.slowness.append(slowness)
        finally:
            self._in_sample = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, elapsed: float) -> float:
        """elapsed, less the samples' time, at the reference speed."""
        if not self.slowness:
            raise RuntimeError("no speed sample was taken; the timed block "
                               f"was shorter than {INTERVAL_S} s")
        return (elapsed - self.busy_s) / statistics.mean(self.slowness)
