"""The host's current speed, measured between jobs.

The shared machines the benchmark runs on drift in speed by up to 2x
over minutes, and the drift hits the interpreter-bound code qdeq spends
its time in.  A fixed slice of such code, timed in the gaps between
jobs, sees that drift while the jobs run.  Multiplying a wall
time by factor(slices) turns it into seconds at the nominal speed.  The
slice is benchmark code that calls nothing in qdeq, so no change to qdeq
can move it, and it allocates no container, so no garbage collection of
qdeq's objects lands inside it.
"""

import math
import time

# the slice's wall time on the baseline machine (see README.md) when
# that machine ran at its fast speed
NOMINAL_S = 0.002

_P = 2147483629
_XS = tuple(range(1, 65))
_Q = complex(math.cos(2.1), math.sin(2.1))
_U = complex(0.3, 0.95)


def reference_slice():
    """Wall time of fixed work in the two styles the workloads spend
    their time in: a complex-float loop like the unit-circle scan, and a
    small-int modular loop like the probe engine and intpoly."""
    t0 = time.perf_counter()
    z = 1.0 + 0j
    s = 0.0
    for n in range(1, 6001):
        z *= _Q
        s += abs(z - _U) * n ** 0.5
    acc = 1
    for r in range(80):
        for v in _XS:
            acc = (acc * v + r) % _P
    return time.perf_counter() - t0


def factor(slices):
    """Nominal over measured speed, from the slices timed in one window."""
    return NOMINAL_S * len(slices) / sum(slices)
