"""CPU-speed calibration: timings adjusted to a reference speed.

The shared host the benchmark was built on (a 2-vCPU Xeon microVM) changes
speed by up to 1.8x in phases from under a second to several minutes, in
CPU time as well as in wall time, with no steal time reported.  A phase
that covers a whole run moves every estimator taken within it, so the
benchmark measures the host's speed alongside the program and reports
timings at a reference speed.

`slice_s` runs a fixed piece of pure-Python work, independent of gcvx,
made of the operations gcvx spends its time in: exact rational arithmetic,
frozenset algebra and dict and tuple traffic.  Passes run a short slice
before every job and one after the last, so the host's speed is sampled
next to each job, with the job's data still in the caches.  The slowdown
of a slice is its time over REF_UNIT_S per unit, and a timing t measured
at slowdown f is reported as t / f.  A change to gcvx moves t and not f,
so it shows in full.

Over twenty fresh-process passes per workload, run in turn while the
host's slowdown ranged from 1.0 to 1.56, the log-log slope of pass time on
slowdown was 0.98 on polytope (correlation 0.95), 0.81 on tensor (0.76)
and 0.81 on laws (0.76; its slices run only between suites).  Dividing by
the slowdown cut the pass-to-pass spread (quartile distance over median)
from 0.08 / 0.11 / 0.14 to 0.03 / 0.06 / 0.05.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds one unit (about 0.13-0.25 ms on the reference host) is taken to
# last at the reference speed; it only sets the scale of adjusted timings.
REF_UNIT_S = 0.0002
WINDOW = 10          # slices on each side of a job that set its slowdown
SETUP_UNITS = 50     # each side of a process start (see run.py)

_BASE = tuple(frozenset(range(j, j + 3)) for j in range(10))


def _unit() -> int:
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 13 + 1)
    family = set()
    for a in _BASE:
        for b in _BASE:
            family.add(a | b)
            family.add(a & b)
    counts: dict = {}
    for i in range(200):
        key = (i % 37, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return acc.denominator + len(family) + len(counts)


def slice_s(units: int) -> float:
    """Seconds that `units` units of calibration work take now, with the
    garbage collector held off so that it is not charged with the
    program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(seconds: float, units: int) -> float:
    """How much slower than the reference speed a slice ran."""
    return seconds / (units * REF_UNIT_S)


def adjust(seconds: float, factor: float) -> float:
    """A timing measured at slowdown `factor`, at the reference speed."""
    return seconds / factor


def job_factors(slices: list[float], units: int) -> list[float]:
    """The slowdown next to each job, when slice i ran just before job i and
    the last slice after the last job: the median of the slices within
    WINDOW of the job on either side."""
    slow = [slowdown(s, units) for s in slices]
    return [statistics.median(slow[max(0, i - WINDOW):i + WINDOW + 2])
            for i in range(len(slices) - 1)]
