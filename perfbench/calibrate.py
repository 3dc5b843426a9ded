"""Host speed probe.

The benchmark runs on shared virtual machines whose speed changes by
tens of percent from one minute to the next. :func:`probe` times a
fixed mix of interpreter, numpy and pandas work that uses no code of
the program under test. The harness reads it before and after each
set-up and each measured slice and divides that block's timings by
``reading / NOMINAL_S``, the host's slowdown at the time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
import pandas as pd

#: Probe time on the 4-core VM the benchmark was tuned on, in its fast
#: state. Timings are reported in units of that host.
NOMINAL_S = 0.0043

_rng = np.random.default_rng(12345)
_INTS = _rng.integers(0, 1 << 30, 100_000)
_IDX = _rng.integers(0, 100_000, 100_000)
_DICT = {i: i for i in range(5_000)}
_STRS = pd.Series(np.array([f"w{i % 997}x" for i in range(5_000)], dtype=object))


def probe() -> float:
    t0 = perf_counter()
    np.sort(_INTS)
    np.bincount(_INTS[_IDX] & 0xFFFF)
    total = 0
    for i in range(5_000):
        total += _DICT[i]
    _STRS.str.contains("w9", regex=False)
    return perf_counter() - t0


def sample(reps: int = 5) -> float:
    """The fastest of ``reps`` probes: one reading of the host's speed."""
    return min(probe() for _ in range(reps))


def bracket(fn, *args):
    """Run ``fn(*args)`` between two readings; returns the host slowdown
    around the call (mean reading / nominal) and ``fn``'s result."""
    before = sample()
    res = fn(*args)
    return (before + sample()) / (2 * NOMINAL_S), res
