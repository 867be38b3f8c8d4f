"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared virtual machine whose speed swings by tens
of percent over tens of seconds, for every process alike: on the 2-vCPU
machine the reference figures come from, one round of census-house took
from 1.1 s to 1.8 s with nothing else running in the guest.  A fixed
pure-Python loop, timed right before and right after each operation,
slows down with it: over 150 s the round times varied with a coefficient
of variation of 15%, their ratio to the loop's times by 3%.

Each operation's time is therefore scaled by REFERENCE_NS / (loop time):
it reads as milliseconds of a machine on which the loop takes exactly
REFERENCE_NS.  The raw wall-clock times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import time

#: a fixed constant: near the loop's time on the reference machine when it
#: is fast (1.5 ms was the 5th percentile of a minute's samples there)
REFERENCE_NS = 1_500_000


def _loop() -> int:
    # the same kinds of work as seatcalc's engine: small tuples, dict
    # lookups and stores, float division and floor
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i * 0.5)
        table[key] = table.get(key, 0.0) + math.floor(i / 7.3)
    return len(table)


def sample_ns() -> int:
    """One timing of the calibration loop, in ns."""
    start = time.perf_counter_ns()
    _loop()
    return time.perf_counter_ns() - start
