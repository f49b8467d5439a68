"""Host-speed calibration: times are reported at a fixed reference speed.

The benchmark host is a few cores of a shared machine, and its speed swings
by half within seconds and by more between runs (a fixed pure-Python loop
took 22 ms to 49 ms within one 20 s window).  Two things steady it:

* ``pin_to_one_cpu()`` keeps the harness and every child on one CPU, so a
  process does not hop between CPUs of different speed (at most one
  process runs at a time anyway).  Pinned, a cold ``selftest`` ran within
  3% of its neighbours for minutes at a time; the speed then changes in
  steps, by up to 40%.
* Each timed operation is scaled by how long a fixed calibration job took
  next to it, on the same CPU:

    reported = measured * REFERENCE / calibration

so a time reads what it would on a host where the calibration job takes
``REFERENCE``.  The job uses nothing from pvalent, so a change to the
program moves the reported times as much as it moves the raw ones.

Two jobs, one per kind of operation:

* ``kernel()`` runs in-process, between warm calls (``in_process_clock``).
  It mixes interpreter work (float maths, calls, a dict) with small numpy
  array arithmetic, the two kinds of work pvalent's warm calls do.
* ``python perfbench/speed.py`` is a cold child: interpreter start, the
  numpy and ``scipy.special`` imports pvalent makes today, and
  ``CHILD_KERNELS`` kernels (``child_clock``).  Cold CLI calls (the
  ``selftest`` ones too) and set-up probes are scaled by it.  Process start and
  imports slow down less than arithmetic when the host slows, so the
  in-process kernel alone would over-correct them.

A single calibration is noisy, so each operation is scaled by the median
of three calibrations around it: the one before it, the one after it and
the next.  In-process calibrations run at most every 20 ms of work, cold
ones at most every 1.5 s, so every second or third cold CLI call gets one.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# About the two jobs' times on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, scipy 1.17) in its slower state.
REFERENCE_KERNEL_S = 2.5e-3
REFERENCE_CHILD_S = 0.55
CHILD_KERNELS = 10
# Least time between calibrations: warm operations take microseconds to a
# few hundred milliseconds, cold ones 0.5 s to 2 s.
KERNEL_EVERY_S = 0.02
CHILD_EVERY_S = 1.5

_Z = np.exp(2j * np.pi * np.arange(256) / 256) * 0.9
_C = np.linspace(0.1, 1.0, 24)


def kernel() -> float:
    """A fixed piece of interpreter and numpy work (``REFERENCE_KERNEL_S`` at reference speed)."""
    s, seen = 0.0, {}
    for k in range(1, 1500):
        s += math.lgamma(0.5 * k + 1.0) / (k + 1.0)
        seen[k & 63] = s
    for _ in range(20):
        w = np.zeros_like(_Z)
        for c in _C:
            w = w * _Z + c
        s += float(np.abs(w).min())
    return s


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to its highest usable CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _median3(samples: list[float], i: int) -> float:
    lo = max(0, min(i - 1, len(samples) - 3))
    return statistics.median(samples[lo : lo + 3])


class Clock:
    """Runs a calibration job between operations, at most every ``every`` seconds.

    Call ``tick()`` just before each operation, and ``scales()`` once after
    the last: it gives each operation's factor, in the order ticked.
    """

    def __init__(self, job: Callable[[], object], reference: float, every: float) -> None:
        self.job, self.reference, self.every = job, reference, every
        self.samples: list[float] = []
        self.owner: list[int] = []  # per operation: the calibration just before it
        self._last = -math.inf

    def calibrate(self) -> None:
        t0 = perf_counter()
        self.job()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        if perf_counter() - self._last >= self.every:
            self.calibrate()
        self.owner.append(len(self.samples) - 1)

    def scales(self) -> list[float]:
        self.calibrate()  # the one after the last operation
        return [self.reference / _median3(self.samples, j + 1) for j in self.owner]

    def median_scale(self) -> float:
        return self.reference / statistics.median(self.samples)


def in_process_clock() -> Clock:
    return Clock(kernel, REFERENCE_KERNEL_S, KERNEL_EVERY_S)


def child_clock(python: str, env: dict, cwd: Path, timeout: float) -> Clock:
    cmd = [python, str(Path(__file__).resolve())]

    def job() -> None:
        # Captured output: with a timeout and no pipes to read, subprocess
        # polls for the exit every 50 ms, and the times come out in 50 ms steps.
        subprocess.run(cmd, env=env, cwd=cwd, check=True, timeout=timeout, capture_output=True)

    return Clock(job, REFERENCE_CHILD_S, CHILD_EVERY_S)


if __name__ == "__main__":
    import scipy.special  # noqa: F401

    for _ in range(CHILD_KERNELS):
        kernel()
    sys.exit(0)
