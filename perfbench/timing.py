"""The benchmark's own timing and percentile helpers.

Deliberately independent of :mod:`repro.bench`: a refactor of the
package's bench helpers must not be able to move the yardstick.
"""

from __future__ import annotations

import gc
import resource
import sys
from statistics import median
from time import perf_counter
from typing import Callable, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile (0-100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = round(p / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark (monotone)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20) if sys.platform == "darwin" else rss / 1024.0


def batch_us(
    operation: Callable[[], object],
    number: int,
    batches: int = 5,
    before_batch: Callable[[], object] | None = None,
) -> float:
    """Median microseconds per call over *batches* timed batches.

    One untimed warm-up batch first; the collector is off inside a
    batch so a GC pass cannot land in one batch and not its neighbour.
    *before_batch* runs untimed ahead of every batch, warm-up included.
    """
    samples = []
    for batch in range(batches + 1):
        if before_batch is not None:
            before_batch()
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            for _ in range(number):
                operation()
            elapsed = perf_counter() - started
        finally:
            gc.enable()
        if batch:
            samples.append(elapsed / number * 1e6)
    return median(samples)


def _calibration_loop() -> int:
    total = 0
    table = {index: index for index in range(64)}
    for index in range(10_000):
        total += table[index & 63] ^ index
    return total


def calibration_us() -> float:
    """Microseconds for one fixed pure-Python loop on this machine.

    Probe values divided by this compare across machines.
    """
    return batch_us(_calibration_loop, number=20, batches=7)


#: What :func:`calibration_slice_us` reads on the reference box (2
#: cores, CPython 3.11) when it is quiet.  Reference-speed time is wall
#: time multiplied by ``REFERENCE_CALIBRATION_US / observed``.
REFERENCE_CALIBRATION_US = 560.0


def calibration_slice_us() -> float:
    """A ~1 ms reading of the calibration loop, for use between chunks.

    The faster of two laps: a descheduling spike rarely hits both.
    """
    started = perf_counter()
    _calibration_loop()
    middle = perf_counter()
    _calibration_loop()
    return min(middle - started, perf_counter() - middle) * 1e6


def speed_scale(before_us: float, after_us: float) -> float:
    """Factor turning wall time measured between two calibration
    slices into reference-speed time (below 1 on a slow machine)."""
    return REFERENCE_CALIBRATION_US / ((before_us + after_us) / 2.0)
