"""RSS and allocation instruments for the A20 scale bench.

Everything else in :mod:`repro.bench` measures *virtual* time — the
simulation's latency model.  A20 also measures the *interpreter*: how
much resident memory a million-entry table costs and how many heap
blocks one hit allocates (wall-clock *timing* of the read path belongs
to ``perfbench/``, which calibrates and pairs its runs).  The two
instruments:

* :func:`peak_rss_kb` — the process high-water mark from ``getrusage``
  (kilobytes on Linux; normalized from bytes on macOS);
* :func:`allocation_probe` — heap blocks allocated per operation,
  measured with ``sys.getallocatedblocks`` under a disabled collector
  so a concurrent GC cannot turn a zero-allocation loop into a
  negative number (``tests/unit/test_perf_budget.py`` pins the hit
  path's budget with it).
"""

from __future__ import annotations

import gc
import resource
import sys
from typing import Any, Callable

__all__ = ["peak_rss_kb", "allocation_probe"]


def peak_rss_kb() -> float:
    """The process's peak resident set size, in kilobytes.

    ``ru_maxrss`` is a high-water mark: it never decreases, so per-arm
    readings in a multi-arm bench are monotone and the *final* reading
    is the run's true peak.  Linux reports kilobytes, macOS bytes.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return rss / 1024.0
    return float(rss)


def allocation_probe(
    operation: Callable[[], Any],
    iterations: int = 128,
    warmup: int = 32,
) -> float:
    """Mean heap blocks allocated (net) per call of *operation*.

    The warmup laps populate caches (interned keys, memoized
    signatures) so the steady state is what gets measured.  The
    collector is disabled across the measured laps:
    ``sys.getallocatedblocks`` counts live blocks, and a GC pass in the
    middle of the window would deflate (or sign-flip) the delta.
    """
    for _ in range(warmup):
        operation()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(iterations):
            operation()
        after = sys.getallocatedblocks()
    finally:
        if was_enabled:
            gc.enable()
    return (after - before) / iterations
