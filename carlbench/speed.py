"""A fixed reference kernel, timed beside the workload, to scale times to one machine speed.

On a shared host the CPU runs faster or slower for seconds to minutes at a
time: the same pass of ``dynamics`` took 1.2-1.4 s in some stretches and
2.1 s in others, with CPU time tracking wall time. Run medians then move
with the host, not with the program. The kernel below does the same kinds
of work as carl (pure-Python float and complex arithmetic, as in the cubic
solver and the sweeps, and 3x3 numpy calls, as in the RK4 loop) and never
calls carl, so a change to carl cannot move it.

A timed interval is scaled by ``NOMINAL_S / r``, where ``r`` is the mean
of the kernel's times just before and just after the interval: the result
is the interval's length on a machine that runs the kernel in
``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 2000
# About the kernel's time on the 2-vCPU reference machine (see README.md);
# a constant, so that scaled figures compare across commits and read close
# to that machine's seconds.
NOMINAL_S = 0.020

_M = np.array([[0.1j, 0.2, 0.0], [0.3, -0.1j, 0.5], [0.0, 0.2j, 0.05]])


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    a, b, c = 1e-6 + 0j, 0j, 0j
    h = 1e-3
    y = np.array([1e-6, 0.0, 0.0], dtype=complex)
    for _ in range(ITERATIONS):
        x = (a * a - 3.0 * b) / 9.0 + math.sqrt(abs(c.real) + 1.0)
        a = a + h * (0.5j * b - c)
        b = b + h * (c - 0.1 * x)
        c = c + h * (-1j * a + 0.2 * b)
        y = _M @ y
        y = y / (float(np.linalg.norm(y)) + 1e-300)
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``, at the nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
