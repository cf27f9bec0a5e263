"""Machine-speed probe that puts times from a shared machine on one scale.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, so raw times from separate runs spread more than the bounds a
regression check needs.  The benchmark times this fixed probe (interpreter
loop plus numpy arithmetic, no cwsoc code) right before and after each
measured step, and scales the step's time by ``PROBE_REF_S / probe``.  The
result is in seconds at the reference speed: on a quiet core of the machine
the baseline was measured on it equals the raw time.  A change to cwsoc
moves the scaled time exactly as it moves the raw time.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median probe time on an idle core of the baseline machine (Intel Xeon,
# 2 cores, Python 3.11.7, numpy 2.4.6).
PROBE_REF_S = 2.5e-3

_ARRAY = np.arange(1, 100_001, dtype=float)


def _probe_once() -> float:
    t0 = perf_counter()
    s = 0.0
    for i in range(20_000):
        s += i * 0.5
    x = _ARRAY
    for _ in range(5):
        x = np.sqrt(x * 1.0001 + 1.0)
    return perf_counter() - t0


def probe() -> float:
    """Median of five probe timings, in seconds (about 12 ms in all)."""
    return statistics.median(_probe_once() for _ in range(5))

