"""Machine-speed probe for steadier timings on a shared machine.

On a machine shared with other tenants the speed of one core drifts, in
bursts of up to about 2x, over seconds to minutes: on a 2-vCPU x86-64 VM
the deterministic convergence_burgers round measured 42.6-55.1 s wall
across ten runs, and 35.7-37.8 s adjusted as below.  While a
timed region runs, an interval timer interrupts it every ``INTERVAL_S``
and runs a fixed ~1 ms loop of interpreter and numpy-scalar work (the
kind of work the package does per particle).  The probe's mean duration
over the region measures the machine's speed during exactly that region.
``adjusted`` rescales the region's wall time (probe time removed) to the
speed at which the probe takes ``REFERENCE_S``, so that a result measured
in a slow phase and one measured in a fast phase compare.

The probe is benchmark code and never calls the package, so a change to
the package moves the adjusted time and the wall time alike.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_S = 1e-3  # probe duration at the reference speed
_LOOPS = 500
_X = np.linspace(0.0, 1.0, 64)
_Y = _X * _X


def probe_s():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_LOOPS):
        u = (i % 97) / 97.0
        acc += float(np.interp(u, _X, _Y)) + max(u, 0.5)
    return time.perf_counter() - t0


def scale():
    """Factor taking a wall time measured just now to the reference speed."""
    return REFERENCE_S / statistics.fmean(probe_s() for _ in range(5))


class Probe:
    """Context manager sampling the probe every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_s())

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)

    def adjusted(self):
        """Wall time of the region without the probes, at the reference speed."""
        samples = self.samples or [probe_s()]  # a region shorter than one interval
        return (self.wall_s - sum(self.samples)) * REFERENCE_S / statistics.fmean(samples)
