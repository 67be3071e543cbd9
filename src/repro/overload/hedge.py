"""Hedged reads: a backup on the replica shard, loser cancelled.

A hedge only pays off on the *miss* path — a hit never reaches the
fetch seam, so the combinator wraps the primary shard's pipeline
generator and does nothing until the primary suspends at
:data:`~repro.sim.scheduler.FETCH_SEAM`, the yield point immediately
before the expensive fetch.  There it charges the hedge delay (the
healthy fleet's p95, clamped by policy — hedge sooner and you double
load for nothing, later and you save nothing), then runs the backup
read on the replica shard to completion:

* backup succeeds → it wins; the primary generator is ``close()``d.
  Cancellation rides the pipeline's normal teardown: ``GeneratorExit``
  reaches ``ReadPipeline._iterate``'s ``BaseException`` handler, which
  closes any single-flight the primary was leading as *failed*, so
  followers are promoted rather than stranded.
* backup fails (any cache error) → the primary resumes exactly where
  it paused; the hedge cost is only the charged delay.

The combinator is a generator that forwards every other suspension
(verifier seams, single-flight waits) to whatever is driving it, so the
same code serves ``CacheCluster.read`` (``drive``, alone) and
``read_many`` (``run_batch``, interleaved).  Everything is charged to
one global virtual clock, which keeps hedge outcomes
seed-deterministic.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.errors import CacheError
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import FETCH_SEAM

__all__ = ["hedged_iterate"]


def hedged_iterate(
    primary: "Generator",
    backup_call: "Callable[[], object]",
    *,
    clock: "VirtualClock",
    delay_ms: float,
    on_outcome: "Callable[[str], None] | None" = None,
):
    """Wrap *primary* (a pipeline generator) with a fetch-seam hedge.

    ``backup_call`` runs the replica read synchronously and returns its
    outcome (or raises a :class:`~repro.errors.CacheError`).
    ``on_outcome`` receives ``"launched"`` / ``"won"`` / ``"lost"`` for
    instrumentation.  At most one hedge fires per read.
    """

    def note(outcome: str) -> None:
        if on_outcome is not None:
            on_outcome(outcome)

    hedged = False
    try:
        step = next(primary)
    except StopIteration as stop:
        return stop.value
    while True:
        if (
            not hedged
            and step is not None
            and step.flight is None
            and step.seam == FETCH_SEAM.seam
        ):
            hedged = True
            if delay_ms > 0.0:
                clock.charge(delay_ms)
            note("launched")
            try:
                outcome = backup_call()
            except CacheError:
                outcome = None
            if outcome is not None:
                note("won")
                primary.close()
                return outcome
            note("lost")
            try:
                step = primary.send(None)
            except StopIteration as stop:
                return stop.value
            continue
        payload = yield step
        try:
            step = primary.send(payload)
        except StopIteration as stop:
            return stop.value
