"""Host-speed calibration for the end-to-end times.

On a shared host the same Python code can run at two speeds about 2x
apart, switching several times a second and sometimes staying slow for
a whole run. CPU time slows with wall time, so the slowdown comes from
the host, not from waiting. The benchmark therefore measures the host
next to every timed operation and divides the operation's time by the
host factor: the calibration's time at that moment over its time at
full speed on the host where the benchmark was defined (2-core Intel
Xeon, Python 3.11.7, numpy 2.4.6). On that host the normalized times
read as seconds at full speed.

* In-process work is calibrated with `unit`, benchmark-owned code of
  the same kind as chartprop's hot path: small numpy products and
  complex scalar arithmetic in a Python loop.
* A child process is calibrated with a reference child (this file run
  as a script): interpreter start-up, numpy and yaml imports, then a
  given number of units. Import-heavy and compute-heavy children slow
  down differently, so each kind of child is bracketed by a reference
  child of the same kind.
"""

import sys
import time

import numpy as np

REFERENCE_S = 7.7e-4
# A reference child (run this file) at full speed on the same host:
# start-up and imports take CHILD_REFERENCE_S, then REFERENCE_S per unit.
CHILD_REFERENCE_S = 0.15

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(8, 8))
_GENERATOR = _M - _M.T


def unit():
    """Fixed work: 80 RK4 steps of a linear 8-vector flow plus a complex
    scalar recurrence. Its result is returned so nothing is skipped."""
    y = np.ones(8)
    h = 0.01
    acc = 0j
    for _ in range(80):
        k1 = _GENERATOR @ y
        k2 = _GENERATOR @ (y + 0.5 * h * k1)
        k3 = _GENERATOR @ (y + 0.5 * h * k2)
        k4 = _GENERATOR @ (y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z = complex(y[0], y[1])
        acc += 1j * (z.conjugate() * z * z + 2.0 * z - 0.3)
    return y, acc


def factor(units=1) -> float:
    """Host slowdown now: median time of `units` calibration units over
    REFERENCE_S (1.0 means the reference host at full speed)."""
    times = []
    for _ in range(units):
        started = time.perf_counter()
        unit()
        times.append(time.perf_counter() - started)
    return float(np.median(times)) / REFERENCE_S


class Bracket:
    """Host factors for back-to-back timed intervals. Each interval gets
    the mean of the factors measured just before and just after it, so
    one measurement serves two neighbouring intervals.

    measure() returns the current host factor; the default times one
    calibration unit in this process.
    """

    def __init__(self, measure=factor):
        self._measure = measure
        self._last = measure()

    def close(self) -> float:
        """Factor for the interval since the previous measurement."""
        now = self._measure()
        host = 0.5 * (self._last + now)
        self._last = now
        return host


if __name__ == "__main__":
    # Reference child: interpreter start-up, chartprop's third-party
    # imports, then the given number of calibration units.
    import yaml  # noqa: F401

    for _ in range(int(sys.argv[1])):
        unit()
