"""A fixed probe of the host's speed, sampled while a child runs.

The benchmark runs on a shared host whose speed drifts by a quarter or more
over minutes (the CPU runs slower, the process is not descheduled), far
beyond the regression bounds.  The probe is a fixed piece of work that
does not touch ``spolab``: an interpreter loop and a numpy gather, each a
few hundred microseconds, together much like the lab's own mix.  Timed
next to the lab, its mean duration (``typical``) says how fast the host
ran meanwhile, and a timing rescaled by ``REFERENCE_S / mean`` reads as on
a host where one probe takes ``REFERENCE_S``.

``Sampler`` runs the probe from a wall-clock interval timer while the lab
runs, so its samples are spread uniformly over the timed interval (a tick
that falls inside a long numpy call runs when the call returns).  Each
tick runs the probe twice and keeps only the second, warm, timing: the lab
evicts the probe's data between ticks, and a cold timing would move with
the lab's own memory traffic, which is what the benchmark measures.  The
time spent in the probes is measured and taken out of the timing they
rescale.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Probe time that rescaled timings are expressed at, of the order of one
# probe on the reference machine (2 vCPUs, "Intel(R) Xeon(R) Processor",
# Python 3.11), where a warm probe took 0.3-0.5 ms.
REFERENCE_S = 4.0e-4
# Interval between ticks during a timed run; a tick costs 3-5 % of it.
PERIOD_S = 0.02

_DATA = np.random.default_rng(0).random(4096) + 0j
_INDEX = np.random.default_rng(1).permutation(4096)


def probe() -> float:
    """Duration of one probe in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(20):
        gathered = _DATA[_INDEX]
        gathered *= 1.0
    return time.perf_counter() - start


def burst(count: int) -> list[float]:
    """``count`` probes back to back."""
    return [probe() for _ in range(count)]


def typical(samples: list[float]) -> float:
    """Mean probe time, leaving out probes that took more than twice the
    median: those were paused (the vCPU was taken away for milliseconds),
    which says nothing about the host's speed, and a handful of them would
    otherwise decide the mean."""
    ordered = sorted(samples)
    limit = 2.0 * ordered[len(ordered) // 2]
    kept = [s for s in ordered if s <= limit]
    return sum(kept) / len(kept)


class Sampler:
    """Probes every ``PERIOD_S`` of wall time between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()  # reloads the probe's data, which the lab has evicted
        self.samples.append(probe())
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
