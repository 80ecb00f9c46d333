"""The machine's speed gauges: fixed work that does not touch weibtail.

The benchmark's host is a couple of vCPUs on a shared machine whose speed
changes by up to 2.3x in phases of seconds to minutes, because neighbours
contend for the same cores and caches.  The warm loops run a gauge unit
between ops every GAUGE_EVERY_S seconds, the CLI loop runs units around
each invocation, and both report their timings at the reference speed:

    time at reference speed = measured time * REFERENCE_NS / gauge time nearby

The unit mixes what weibtail's ops do: scalar root solves in Python over
``math`` functions, and passes over a few thousand-point numpy arrays.
It uses nothing from weibtail, so a change to weibtail moves the measured
times and leaves the gauge alone.  REFERENCE_NS is the unit's time on the
2-vCPU Xeon host the benchmark was written on, at its fastest (its
median there ran 0.85-1.7 ms depending on the neighbours); it only fixes
the scale, so scaled times read like wall-clock times on that host when
it is quiet.

Set-up is a fresh interpreter importing weibtail, which the compute unit
does not track; set-up probes are scaled instead by a bare interpreter
start (``python -c pass``) just before and after each probe:

    set-up at reference speed = measured * START_REFERENCE_NS / bare start nearby
"""

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_NS = 850_000
START_REFERENCE_NS = 40_000_000  # a bare interpreter start on the same host, at its fastest
GAUGE_EVERY_S = 0.05

_X = np.linspace(-3.0, 6.0, 4000)


def _f(x, a):
    return a * math.log1p(math.exp(x)) + math.erfc(0.1 * x) - 3.0


def _bisect(a):
    lo, hi = -5.0, 40.0
    f_lo = _f(lo, a)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = _f(mid, a)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo


def _arrays():
    y = np.exp(-np.exp(-_X))
    z = np.log1p(1e-300 - y)
    return float(np.maximum.accumulate(np.abs(z - y)).max())


def unit():
    """One gauge unit; returns its duration in ns."""
    t0 = time.perf_counter_ns()
    for k in range(40):
        _bisect(1.0 + 0.01 * k)
    for _ in range(8):
        _arrays()
    return time.perf_counter_ns() - t0


def bare_start(env, cwd):
    """Duration in ns of one ``python -c pass`` in the given environment."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter_ns() - t0


class Gauge:
    """Gauge samples taken during a timed loop, with their start times."""

    def __init__(self):
        self.every_ns = int(GAUGE_EVERY_S * 1e9)
        self.samples = []  # (start ns, duration ns)
        self.next_ns = 0

    def take(self):
        t = time.perf_counter_ns()
        self.samples.append((t, unit()))

    def maybe(self):
        """Take a sample if GAUGE_EVERY_S has passed since the last one."""
        t = time.perf_counter_ns()
        if t >= self.next_ns:
            self.samples.append((t, unit()))
            self.next_ns = t + self.every_ns

    def factors(self, times_ns, window_s=1.0):
        """Scale factor at each time: REFERENCE_NS over the median gauge within
        +-window_s of it (the nearest sample when none is that close)."""
        starts = [s for s, _ in self.samples]
        durs = [d for _, d in self.samples]
        half = int(window_s * 1e9)
        out = []
        lo = hi = 0
        for t in times_ns:  # times_ns ascending
            while lo < len(starts) and starts[lo] < t - half:
                lo += 1
            hi = max(hi, lo)
            while hi < len(starts) and starts[hi] <= t + half:
                hi += 1
            window = durs[lo:hi]
            if not window:  # the sample nearest in time
                near = [j for j in (lo - 1, lo) if 0 <= j < len(starts)]
                window = [durs[min(near, key=lambda j: abs(starts[j] - t))]]
            out.append(REFERENCE_NS / statistics.median(window))
        return out
