"""Host-speed calibration for the end-to-end benchmark.

The 2-core reference machine changes speed by up to 2x over seconds
to tens of seconds, and each of its two vCPUs does so on its own.  A run taken in a slow stretch must show up as one, not read as a
regression, so every end-to-end duration the benchmark reports is
rescaled by :class:`HostSpeed` to a reference speed.

This module imports nothing from the simulator: the set-up child of
``figures-cold`` uses it before it imports ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

_DOCUMENT = {"rows": [list(range(20)) for _ in range(20)],
             "names": {str(i): i * 1.5 for i in range(100)}}


def reference_work() -> int:
    """Fixed work whose slowdown tracks the simulator's: JSON round trips
    of a fixed document.  On the reference host, when the host slowed,
    guest calls, tier-0 warm-up and served cache reads slowed by 0.93 to
    1.03 times as much as this work; against a pure-Python dict and list
    loop the ratio was only 0.77 to 0.88, so rescaling by such a loop
    over-corrects in slow stretches."""
    total = 0
    for _ in range(10):
        total += len(json.loads(json.dumps(_DOCUMENT, sort_keys=True)))
    return total


def _best_of_three() -> float:
    best = math.inf
    for _ in range(3):
        begin = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - begin)
    return best


class HostSpeed:
    """Rescales measured durations to a reference host speed.

    Between operations the benchmark samples how long
    :func:`reference_work` takes; an operation's duration is divided by
    the mean of the samples on either side of it, over
    :data:`REFERENCE_S`.  The reference work never touches the
    simulator, so a change to the repository cannot move it; only the
    host's speed does.
    """

    #: seconds the reference work takes on a quiet reference host.
    REFERENCE_S = 0.0012

    def __init__(self, cpus: set[int] | None = None) -> None:
        #: the CPUs whose speed matters; None: the one this thread is on.
        self.cpus = cpus
        self.samples = [self.sample()]

    def sample(self) -> float:
        """Seconds the reference work takes now (best of three), averaged
        over :attr:`cpus`.  Sample only CPUs that just did the work: an
        idle vCPU runs the first milliseconds after waking much slower."""
        if self.cpus is None:
            return _best_of_three()
        own = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(self.cpus):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(_best_of_three())
        finally:
            os.sched_setaffinity(0, own)
        return statistics.fmean(per_cpu)

    def step(self) -> float:
        """The host slowdown since the previous step (1.0 = reference)."""
        self.samples.append(self.sample())
        return (self.samples[-2] + self.samples[-1]) / (2 * self.REFERENCE_S)

    def calib_ms(self) -> float:
        return statistics.median(self.samples) * 1000.0
