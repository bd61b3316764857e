"""A fixed slice of interpreter work that gauges the host's current speed.

The machines the benchmark runs on are shared: the same pass of ops runs
up to a third slower a minute later.  The worker runs short slices of
this fixed work between ops, and run.py scales each pass's op times by
how long its slices took against NOMINAL_SLICE_S.  The mix resembles the
program's: big-integer products and decimal conversion (recurrences, n!
scaling, output), a bytecode loop (word search), a tuple-keyed dict (the
DP memo) and Fraction arithmetic (the phi route).  The slice calls
nothing of the program, but it runs in the worker between ops and so
shares the worker's heap and garbage collector: a change that leaves the
program holding far more objects between ops could slow it a little.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Median slice time on the machine the benchmark was written on (2 vCPU
#: cloud VM, Python 3.11).  Scaled metrics read as if measured there.
NOMINAL_SLICE_S = 0.0049


def slice_seconds() -> float:
    start = time.perf_counter()
    product = 1
    for i in range(2, 700):
        product *= i
    digits = len(str(product))
    total = 0
    for i in range(20000):
        total += (i * 7) % 13
    memo = {}
    for i in range(6000):
        memo[(i % 97, i)] = total + i
    q = Fraction(1, 3)
    for i in range(1, 120):
        q = q * Fraction(i, i + 2) + digits
    return time.perf_counter() - start


def slices(budget_s: float) -> list[float]:
    """Slice times, as many as it takes to spend budget_s (maybe none)."""
    spent, times = 0.0, []
    while spent < budget_s:
        times.append(slice_seconds())
        spent += times[-1]
    return times
