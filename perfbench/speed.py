"""Machine-speed calibration, so that times measure the program, not the host.

The host's speed drifts by up to 1.7x within minutes (other tenants, clock
changes): a fixed pure-Python loop timed back to back varies that much, in
process time as much as in wall time.  So while a round runs, a timer signal
every PERIOD_S seconds runs a fixed calibration kernel in the main thread,
between two bytecodes of whatever is running.  The work done since the
previous calibration is counted at reference speed,

    reference seconds = measured seconds * CAL_REF_S / calibration time,

and the calibrations themselves are not counted.

The kernel mixes, in about equal parts of its time, what the package spends
its time on: complex arithmetic in Python loops (the double-precision
series), numpy on 15-point arrays (the contour integrands) and mpmath big
floats (the escalated series) in a context of its own so the package's
mpmath precision is never touched.  Its working set is a few hundred bytes
and it runs with the garbage collector off, so it measures the host's speed
and not the program's own footprint: a program change that grows the heap
or the live-object count slows the program but not the calibration, and
shows in full in the scaled times.  The 50 ms period follows most of the
host's speed changes, which lose their autocorrelation after 50-100 ms.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import mpmath
import numpy as np

PERIOD_S = 0.05
# median calibration time on the machine the reference figures come from
# (2 vCPUs, Python 3.11, numpy 2.4, pure-Python mpmath); only sets the scale
CAL_REF_S = 0.0024

_CTX = mpmath.MPContext()
_CTX.dps = 60
_S = np.linspace(0.5, 2.0, 15) + 1j * np.linspace(-3.0, 3.0, 15)


def calibrate() -> float:
    """Runs the fixed kernel once, with the garbage collector off; returns its
    duration in seconds."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if gc_was_on:
            gc.enable()


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0j
    for m in range(1, 1600):
        acc = acc * (0.5 + 0.25j) / m + complex(m, 1.0)
    s = _S
    for _ in range(110):
        s = np.exp(np.log(s) * (1.0 + 1e-9)) + 0.0
    x = _CTX.mpc(1, 2)
    one = _CTX.mpf(1)
    for _ in range(24):
        x = x * _CTX.mpc(1.0001, 0.0001) / (one + _CTX.mpf(5e-5))
    return time.perf_counter() - t0


class SpeedProbe:
    """A clock that runs at reference speed.

    A timer signal runs `calibrate` every period; the work time since the
    previous calibration is scaled by CAL_REF_S over the median of the last
    three calibration times, and the calibrations themselves are left out.
    """

    def __init__(self):
        self.samples = []
        self._scaled = 0.0  # reference seconds of work up to _mark
        self._mark = time.perf_counter()
        self._factor = 1.0
        self._old = None

    def _handler(self, _signum=None, _frame=None):
        work = time.perf_counter() - self._mark
        self.samples.append(calibrate())
        self._factor = CAL_REF_S / statistics.median(self.samples[-3:])
        self._scaled += work * self._factor
        self._mark = time.perf_counter()

    def start(self):
        """Calibrates once, then every period until stop()."""
        self._handler()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def now(self) -> float:
        """Reference-speed seconds of work so far."""
        return self._scaled + (time.perf_counter() - self._mark) * self._factor
