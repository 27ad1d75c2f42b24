"""A fixed reference task that measures how fast this CPU is running right now.

On a shared virtual machine the same single-threaded work can take 1.5x
longer from one minute to the next, because other tenants share the core.
Timing the reference task between operations measures that drift, and
:func:`scale` divides it out: a scaled time is the wall time the operation
would have taken had the reference task run in :data:`REF_MS`.

The task mixes what the workloads spend their time on: small and medium
matrix products, elementwise numpy calls on batch-sized arrays, and
Python-level parsing and formatting of numbers.  It uses nothing from
``idgp``, so a change to the package cannot change the reference.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median reference time over the operations of ten tuning runs on the machine
# the baseline was recorded on (2 shared vCPUs, OpenBLAS 0.3.31, one BLAS
# thread), so a scaled time reads as a typical wall time there.  Every run
# prints the reference times it measured on its ``unscaled`` line.
REF_MS = 3.9

_X = np.linspace(-1.0, 1.0, 256 * 128).reshape(256, 128)
_W1 = np.linspace(-0.1, 0.1, 128 * 256).reshape(128, 256)
_W2 = np.linspace(-0.1, 0.1, 256 * 50).reshape(256, 50)
_LINE = " ".join(repr(float(v)) for v in np.linspace(-3.0, 3.0, 64))


def _task() -> float:
    h = np.maximum(_X @ _W1, 0.0)
    s = np.clip(h @ _W2, -2.0, 2.0)
    total = 0.0
    for _ in range(8):  # batch-sized elementwise work, one numpy call at a time
        lam = np.exp(s) + 1.0
        theta = lam / lam.sum(axis=1, keepdims=True)
        total += float(np.log(theta).sum())
        total += float(np.all(np.isfinite(theta)))
    for _ in range(20):  # text parsing and formatting, one value at a time
        values = [float(t) for t in _LINE.split()]
        total += len(" ".join(repr(v) for v in values))
    return total


def reference_ms(repeats: int = 7) -> float:
    """Median wall time of the reference task, in milliseconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _task()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def scale(seconds: float, ref_ms: float) -> float:
    """``seconds`` measured while the reference took ``ref_ms``, at REF_MS speed."""
    return seconds * REF_MS / ref_ms
