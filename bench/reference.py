"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark times this kernel between its rounds and scales each round's
time by how much slower or faster the kernel ran than REFERENCE_S. Host
contention that slows the program slows the kernel alike, so it cancels;
a change to sparsemix does not touch the kernel, so it shows in full.

The kernel mixes the two kinds of work the workloads spend their time on:
an interpreter-bound Python loop, and numpy gathers and reductions over
temporaries larger than the L2 cache (the shape of the exhaustive decoder's
candidate blocks). It uses no sparsemix code, one thread, and the same
inputs on every call.
"""

from __future__ import annotations

import time

import numpy as np

# Near the kernel's time on an uncontended 2-vCPU Intel Xeon VM. Fixed, so
# scaled values read as seconds (or items per second) at that speed.
REFERENCE_S = 0.030

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 24))
_Y = _rng.standard_normal(128)
_CANDS = np.sort(_rng.integers(0, 24, size=(4096, 4)), axis=1)  # 16 MiB gathered


def _interpreter_work() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def _gather_work() -> float:
    lo = np.inf
    for _ in range(3):
        resid = _Y[None, :] - np.add.reduce(_X.T[_CANDS], axis=1)
        lo = min(lo, float((resid * resid).sum(axis=1).min()))
    return lo


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _interpreter_work()
    _gather_work()
    return time.perf_counter() - start
