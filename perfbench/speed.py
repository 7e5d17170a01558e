"""Machine-speed probes, so that timings taken on a shared machine compare.

On a shared host the same code runs up to about twice as slow at some
moments as at others, in phases that last from a fraction of a second to
tens of minutes, so two runs of the same code can differ by a quarter or
more. Each timed end-to-end metric is therefore scaled by a probe that runs
no code of the program under test, so that a change to the program still
moves it in full.

Rounds: ``Sampler`` runs a fixed probe from a ``SIGALRM`` timer every
``INTERVAL_S`` while a stretch of measured work runs, in the same thread,
and keeps the probe's times. A stretch's wall time scaled by
``REF_PROBE_S`` over the mean probe time during it is the time the stretch
would take on a machine where one probe takes ``REF_PROBE_S``. The probes
add a few per cent to the wall time of the work they sample.

Set-up: a fresh process spends about two thirds of its set-up importing
numpy, and the loop probe tracks set-up times poorly. ``startup_probe``
times a fresh interpreter that imports numpy and exits, run just before each
timed set-up; a set-up's wall time scaled by ``REF_STARTUP_S`` over that
probe's time is its time on a machine where that probe takes
``REF_STARTUP_S``.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from time import perf_counter

INTERVAL_S = 0.025
# about the mean time of each probe on a 2-core shared Xeon VM
REF_PROBE_S = 0.0006
REF_STARTUP_S = 0.2


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(3000):
        k = i % 97
        acc[k] = acc.get(k, 0) + (i ^ (i >> 3))
    return perf_counter() - t0


class Sampler:
    """Samples the probe while started; ``stop`` gives the mean probe time."""

    def __init__(self):
        self.times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.times.append(probe())

    def start(self) -> None:
        self.times = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a stretch shorter than one interval
            self.times.append(probe())
        return sum(self.times) / len(self.times)


def startup_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def at_ref_speed(seconds: float, probe_s: float, ref_s: float = REF_PROBE_S) -> float:
    return seconds * ref_s / probe_s
