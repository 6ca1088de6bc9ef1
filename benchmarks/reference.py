"""Machine-speed references for reporting times at a fixed nominal speed.

The host this benchmark was built on is a shared two-core VM whose speed
drifts by 20-40 % over seconds to minutes; that drift alone spread the
medians of 35-second runs by 0.08-0.33 (IQR over median). So every op is
bracketed by a reference: fixed work that does not touch twinscope, timed
right before and right after the op. The op's time times `nominal_s` over
the mean of the two reference times is its time at the nominal speed. The
reference after one op is the reference before the next. Raw times are
printed next to the scaled ones.

Two references, matched to what the op spends its time on:
  * `InProcess`: an interpreter loop plus small numpy/LAPACK calls, the mix
    an in-process twinscope op runs. Over five runs per workload it cut
    the spread of throughput and p50 from 0.06-0.15 raw to 0.02-0.05.
  * `ProcessStart`: a bare `python -c pass` child, for ops that are process
    start plus import (a CLI call, set-up), which the in-process reference
    did not track. Over five CLI runs it cut the p50 spread from 0.10 to
    0.02 and the set-up spread from 0.19 to 0.10.

The `nominal_s` values are constants of the benchmark, close to each
reference's median on the baseline machine (2 vCPUs, Python 3.11.7,
numpy 2.4.6). Changing one rescales every time reported with it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_H = np.array(
    [[2, 1 - 1j, 0, 0.5], [1 + 1j, -1, 0.25j, 0], [0, -0.25j, 0.5, 1], [0.5, 0, 1, -1.5]],
    dtype=complex,
)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _quantum() -> float:
    start = perf_counter()
    s = 0
    for i in range(1500):
        s += i * i
    for _ in range(10):
        np.linalg.eigh(_H)
        np.kron(_H, _X)
    return perf_counter() - start


class InProcess:
    nominal_s = 5.0e-4

    def __init__(self, quanta: int) -> None:
        self.quanta = quanta

    def sample(self) -> float:
        """Median time of `quanta` back-to-back reference runs."""
        return statistics.median(_quantum() for _ in range(self.quanta))


class ProcessStart:
    nominal_s = 7.0e-2

    def sample(self) -> float:
        """Wall time of a bare interpreter start."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        return perf_counter() - start


def nominal(seconds: float, reference, before: float, after: float) -> float:
    """A time measured between two reference samples, at the nominal speed."""
    return seconds * reference.nominal_s * 2 / (before + after)
