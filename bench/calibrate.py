"""Host-speed reference for scaling wall times.

On a shared host the speed of one fixed piece of work drifts by up to 1.4x
over seconds to tens of seconds, and interpreter code and numpy code slow
down together.  `reference_s` times a fixed mix of both, next to each unit
of benchmark work; `scale` turns such a timing into the factor that maps a
wall time measured at that moment to one at the reference speed `REF_S`.
The reference is benchmark code, so a change to the program does not move
it: a program twice as fast still reads twice as fast.
"""
from __future__ import annotations

import os
import time

import numpy as np

# median of `reference_s` on a fast phase of the 2-core host on which the
# seed sizes in README.md were measured
REF_S = 0.006

_X = np.random.default_rng(0).normal(size=4096)


def _mix() -> None:
    s = 0.0
    for i in range(600):                      # small-array numpy calls
        s += float(np.abs(_X[i:i + 64]).sum())
    acc = 0
    for i in range(60_000):                   # interpreter loop
        acc += i * i
    for _ in range(4):                        # whole-array numpy
        np.fft.fft(_X)
        np.sort(_X)


def reference_s() -> float:
    """Mean over the process's CPUs of the median of three runs of the
    reference mix pinned to that CPU.

    A two-thread workload is slowed by either of its cores; a one-thread
    workload moves between them.  Only the calling thread is pinned, and
    its CPU set is put back afterwards.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                _mix()
                times.append(time.perf_counter() - t0)
            per_cpu.append(sorted(times)[1])
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu)


def scale(ref_s: float) -> float:
    """Factor from a wall time measured where the reference took `ref_s`
    to the same time at the reference speed."""
    return REF_S / ref_s
