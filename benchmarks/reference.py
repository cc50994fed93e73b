"""Fixed reference work that measures the host's speed beside each case.

The host these timings come from is shared, and its speed moves between
regimes that last from seconds to minutes: in the slow one, interpreter-bound
work takes about 1.7x the CPU seconds.  `cpu_seconds` runs the same work every time, in the
benchmark process, in two parts like those the package spends most of its
time on: Python float formatting and joining (the CSV writers) and many
numpy ufuncs on small arrays (the oracle's right-hand side, the Picard
iterates).  It uses numpy and the standard library only, so a change to
the package cannot change its cost.  Passes over large arrays were left
out: their time moved from process to process two to three times as much
as the package's own, and their buffers would count in peak RSS.

A case's user-mode CPU seconds are scaled by `REF_S / cpu_seconds()`, with
`cpu_seconds()` taken right before and right after the case: they become
seconds on a host where this work takes `REF_S`.  System time (page faults,
file writes) does not move with this work, so it is not scaled.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.125

_VALUES = [i * 0.001234567 for i in range(20000)]


def _format() -> int:
    size = 0
    for _ in range(2):
        size += len("\n".join(f"{v:.10g},{2 * v:.10g}" for v in _VALUES))
    return size


def _small_arrays() -> float:
    x = np.linspace(0.0, 1.0, 800)
    y = np.empty_like(x)
    for _ in range(4000):
        f = x * np.exp(-x)
        d = np.diff(f)
        y[1:] = x[1:] - 0.01 * d
        y[0] = x[0]
        x = 0.5 * (x + y)
    return float(x.sum())


def cpu_seconds() -> float:
    """CPU seconds this process spends on the fixed reference work."""
    start = time.process_time()
    _format()
    _small_arrays()
    return time.process_time() - start
