"""A fixed loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30 % over minutes, as other tenants' load comes and goes, while CPU
time tracks wall time (the slowdown is in the core, not stolen time).
``worker.py`` times this loop between jobs, and ``run.py`` rescales each
pass's set-up and wall time to the speed the loop had on the baseline
machine, so drift that slows the loop and the program alike cancels.
The loop is the benchmark's own code and does the kinds of work the
program does: a Python integer loop, ``Fraction`` sums, ``cmath`` calls
and a NumPy complex exponential.  No change to the program can make it
faster.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import numpy as np

# seconds of one ``sample()`` on the baseline machine
# (perfbench/BASELINE.json): the median of its samples, 0.042-0.060 s
# over 6-minute stretches of passes
REFERENCE_S = 0.05


def _loop() -> tuple:
    table = {}
    for i in range(1, 20000):
        a, b = i * 7919, i + 104729
        while b:
            a, b = b, a % b
        table[i & 1023] = a
    frac = Fraction(0)
    for i in range(1, 1500):
        frac += Fraction(1, i * (i + 1))
    z = 0j
    for i in range(1, 20000):
        z += cmath.exp(-1j * math.log(i)) / i
    x = np.arange(1, 20001, dtype=float)   # small: no mark on peak RSS
    s = 0j
    for _ in range(40):
        s += np.exp(-3.7j * np.log(x)).sum()
    return table, frac, z, s


def sample() -> float:
    """Seconds one run of the loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
