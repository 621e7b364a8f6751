"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed moves between levels about
1.5x apart, for stretches of seconds to minutes.  Process CPU time moves
with wall time, so the slowdown is contention for the core, not time stolen
from the VM, and no estimator over one run's latencies removes a shift that
outlasts the run.  So every timed task is bracketed by probes of this
kernel, and its latency is scaled by ``REF_S / probe``: a time as it would
read at the speed where the kernel takes ``REF_S``.

The kernel uses only the standard library (``Fraction`` arithmetic and a
small dict, like the library's scalar work), so no change to ``sl2family``
changes it: a library that gets 20% slower reads 20% slower, whatever the
host is doing at the time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: the probe's time at the reference speed: about its median on a 2-vCPU
#: Intel Xeon VM in an uncontended stretch, with Python 3.11.7
REF_S = 120e-6
REPS = 3


def _kernel():
    acc = {}
    x = Fraction(1, 3)
    for k in range(1, 24):
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k)
        acc[(k % 7, k % 5)] = x
    return len(acc)


def probe() -> float:
    """The kernel's time in seconds: median of ``REPS`` runs, with gc held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[REPS // 2]


def scaled(latencies, probes):
    """Latencies at the reference speed.

    ``probes`` has one more entry than ``latencies``: the probe before the
    first task, then the probe after each task.  A task is scaled by the
    mean of the probes on either side of it.
    """
    return [t * 2 * REF_S / (probes[i] + probes[i + 1]) for i, t in enumerate(latencies)]
