"""Host-speed probes: scale measured times to a reference host speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within seconds, and process CPU time drifts with wall time, so it is no
way out.  Instead a fixed probe, which uses no ekrlab code, runs next to the
measured work, and a measured time ``t`` is reported as
``t * probe.reference_s / p``, where ``p`` is what the probe took: the time
the work would take on a host on which the probe takes ``reference_s``.  A
change to ekrlab moves ``t`` and not ``p``, so it moves the scaled time by
the same share.

Two probes, because the two kinds of work slow down differently:

- ``COMPUTE`` runs in the measuring process and mixes what library jobs
  spend their time on: interpreted loops over ints and dicts, ``Fraction``
  arithmetic, bit operations on big integers and small numpy array
  operations.  It is the mean of four back-to-back runs: on a busy host
  the minimum of a few runs picks the lucky ones and misses the slowdown.
- ``PROCESS`` starts a bare interpreter (``python -S -c pass``).  Fresh
  processes slow down with the host's process start-up (exec, page faults,
  dynamic loading), which the compute probe does not follow.

``pin`` puts the benchmark and every process it starts on one CPU, so that a
probe and the work it scales run on the same CPU.  On a shared host the CPUs
of one machine do not slow down together.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Measured work between two probes, in seconds of unscaled time.
SLICE_S = 0.1


def _compute_once() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    x = Fraction(1, 3)
    for i in range(1, 100):
        x = x * Fraction(i, i + 2) + Fraction(1, i)
    bits, word = 0, 12345
    for _ in range(2500):
        word = (word * 1103515245 + 12345) & ((1 << 200) - 1)
        bits += (word & (word >> 3)).bit_count()
    a = np.arange(2000.0)
    for _ in range(8):
        a = np.sort(a * 1.0001)[::-1]
    return time.perf_counter() - start


def _process_once() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


class Probe:
    """A fixed piece of work, and what it takes on the reference host."""

    def __init__(self, measure, reference_s: float):
        self.measure = measure
        self.reference_s = reference_s

    def scale(self, before: float, after: float) -> float:
        """Factor for work measured between probes of ``before`` and ``after`` s."""
        return 2 * self.reference_s / (before + after)


# Reference times: a 2-vCPU virtual machine measured the compute probe at
# 2.0 ms and the process probe at 10 ms in its fast phases.
COMPUTE = Probe(lambda: sum(_compute_once() for _ in range(4)) / 4, 0.002)
PROCESS = Probe(_process_once, 0.010)


def job_probe(workload: str) -> Probe:
    """The probe that scales the jobs of a workload."""
    return PROCESS if workload == "cli-cold" else COMPUTE


def pin() -> None:
    """Run this process, and every process it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Scaler:
    """Scales a stream of measured times in slices bounded by probes.

    ``add`` records one unscaled time; once ``SLICE_S`` of them have piled
    up, a probe closes the slice and the slice's times are scaled by the
    probes on both sides of it.  ``flush`` closes the current slice.  With
    ``probe=None`` nothing is probed and times are kept as measured.
    """

    def __init__(self, probe: Probe | None = COMPUTE):
        self.probe = probe
        self.last = probe.measure() if probe else None
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= SLICE_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        factor = 1.0
        if self.probe:
            now = self.probe.measure()
            factor = self.probe.scale(self.last, now)
            self.last = now
        self.scaled += [t * factor for t in self.pending]
        self.pending = []
