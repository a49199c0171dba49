"""Machine speed probe: a fixed pure-Python kernel timed next to the work.

On a shared host the same code runs up to about 1.8x slower for seconds to
minutes at a time, while other tenants load the machine.  The benchmark
times this kernel right before every operation (and around every set-up)
and scales each measured time by ``REFERENCE_S`` over the kernel's time
there, so that reported times read as if the machine ran at the speed at
which one kernel call takes ``REFERENCE_S``.  The kernel calls no library
code, so a change to the library moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import time

# Nominal kernel time: about its median on a 2-vCPU Xeon VM whose host is
# quiet.  It only sets the scale at which times are reported.
REFERENCE_S = 0.0003


def kernel() -> int:
    """Dictionary, integer, tuple and sorting work, like the library's mix."""
    counts = {}
    acc = 1
    rows = []
    for i in range(600):
        key = (i * 7) % 97
        counts[key] = counts.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
        rows.append((acc % 13, i))
    rows.sort()
    return acc + len(counts) + rows[0][1]


def sample() -> float:
    """Seconds one kernel call takes now."""
    clock = time.perf_counter
    t0 = clock()
    kernel()
    return clock() - t0
