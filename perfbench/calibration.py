"""Host-speed calibration: a fixed loop of the benchmark's own, timed between
the program's operations.

The host's speed drifts by up to 2x over minutes (README.md, "Host noise"),
far more than any bound on a wall time could allow.  The loop below does not
touch the program, so its time moves only with the host.  A run scales its
times by ``REFERENCE_S / median(calibration samples)``; the result is the
time the run would have taken, about, on a host that runs one sample in
``REFERENCE_S``.  The calibration does not depend on the program, so a
program change moves the scaled time by the same factor as the raw one.

Half of a sample is a pure-Python dict loop and half numpy on an 8,000-element
array, the two kinds of work the program's layers mix.  Each half alone
tracked some layers and missed others; the sum did best overall, though not
on every operation (README.md, "Host noise").
The array's temporaries (64 KB) stay below glibc's default mmap threshold, so
a sample does not pay page faults that depend on the heap's history.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one sample takes on the reference host state (about the median of
# this loop on the 2-vCPU host the README figures come from).
REFERENCE_S = 0.030

_PY_STEPS = 100_000
_NP_STEPS = 275
_X0 = np.linspace(0.0, 1.0, 8_000)


def _python_part() -> int:
    d: dict[int, int] = {}
    for i in range(_PY_STEPS):
        k = i % 977
        d[k] = d.get(k, 0) + i
    return len(d)


def _numpy_part() -> float:
    x = _X0
    for _ in range(_NP_STEPS):
        x = np.exp(-x) * 1.0001 + np.log1p(x)
    return float(x[0])


def sample() -> tuple[float, float]:
    """Wall times of the two halves of one calibration loop, in seconds."""
    t0 = time.perf_counter()
    _python_part()
    t1 = time.perf_counter()
    _numpy_part()
    return t1 - t0, time.perf_counter() - t1
