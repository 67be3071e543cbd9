"""The unified cache instrumentation bus.

Every observable step of a cache access is one *stage event* — stage
name, (document, user) key, outcome label, virtual-clock start/end,
payload.  :meth:`~repro.cache.core.CacheCore.emit` is where a stage
publishes one: it builds a :class:`StageEvent` and hands it to this
module's :class:`InstrumentationBus` only when the bus has a
subscriber (a probe, a :class:`StageRecorder`, a test).  With none, an
event builds nothing and reads no clock.  Nothing the cache itself
needs travels here: counters are written where they are decided, and
a cluster's shard-health tracker is told at the read terminals.

The stats dataclasses (``CacheStats``, ``MemoStats``,
``ConcurrencyStats``, ``OverloadStats``, ``RecoveryStats``,
``ContainmentStats``) are *not* derived from events: each counter is
incremented at the line that decides it, beside that emit, and
``core.metrics`` holds them all.  A per-stage count and virtual-time
breakdown is a :class:`StageRecorder` that whoever wants one
subscribes.  The ``RULES`` tables ``CacheStats`` and ``MemoStats``
still carry, with :class:`CounterProjection`, state what the counters
would be if they were derived — the tests use them as the oracle.

Events are emitted synchronously (subscribers run inline at the emit
site) and timing comes from the virtual clock only, so instrumentation
never perturbs simulated time or fault-injection draws.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from repro.ids import DocumentId, UserId

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.stats import CacheStats

__all__ = [
    "StageEvent",
    "InstrumentationBus",
    "StageRecorder",
    "ELAPSED",
    "CounterProjection",
    "StatsProjection",
    "STAGE_ORDER",
]

#: Canonical display order for breakdown tables: read-pipeline stages,
#: write-pipeline stages, then auxiliary event sources.
STAGE_ORDER = (
    "read",
    "storage",
    "memo",
    "coalesce",
    "fetch",
    "degradation",
    "admission",
    "write",
    "flush",
    "verifier",
    "quarantine",
    "containment",
    "eviction",
    "invalidation",
    "notifier",
    "forward",
    "prefetch",
    "bus-loss",
    "channel",
    "lease",
    "resync",
    "journal",
    "crash",
    "overload",
    "deadline",
    "hedge",
    "health",
)


class StageEvent(NamedTuple):
    """One structured observation emitted by a cache stage.

    A hot type: one is built per observable step of every access and
    handed to every subscriber.  A named tuple keeps it immutable and
    slotted (no per-instance ``__dict__``) at a quarter of a frozen
    dataclass's construction cost, and emit sites skip construction
    entirely when the bus has no subscriber.
    """

    stage: str
    outcome: str
    document_id: "DocumentId | None" = None
    user_id: "UserId | None" = None
    started_ms: float = 0.0
    ended_ms: float = 0.0
    payload: Mapping[str, Any] = MappingProxyType({})

    @property
    def elapsed_ms(self) -> float:
        """Virtual time the observed work took."""
        return self.ended_ms - self.started_ms


class InstrumentationBus:
    """Synchronous fan-out of stage events to subscribers.

    Every subscriber receives every event, in subscription order; one
    that wants only some stages filters inside itself.

    The subscriber collection is copy-on-write: ``subscribe`` and
    ``unsubscribe`` *replace* an immutable tuple rather than mutating a
    list in place, and ``emit`` iterates whatever tuple it captured.
    In an interleaved batch a stage callback may subscribe or
    unsubscribe mid-emit (e.g. a probe detaching itself when a batch
    finishes) while another read is delivering events at a suspension
    point; with a shared mutable list that is the classic
    mutated-during-iteration race — skipped or double-delivered events.
    With copy-on-write, an in-progress emit simply finishes against the
    snapshot it started with (see DESIGN.md §3.3).
    """

    def __init__(self) -> None:
        self._subscribers: tuple[Callable[[StageEvent], None], ...] = ()
        #: True when at least one subscriber is registered.  Emit sites
        #: read it *before* constructing a :class:`StageEvent`, so an
        #: unobserved bus costs one attribute load and a truth test per
        #: would-be event.
        self.has_subscribers = False

    def subscribe(self, subscriber: Callable[[StageEvent], None]) -> None:
        """Register a subscriber; it runs inline on every emit."""
        self._subscribers = self._subscribers + (subscriber,)
        self.has_subscribers = True

    def unsubscribe(self, subscriber: Callable[[StageEvent], None]) -> None:
        """Remove the first matching subscriber (no-op if absent).

        Matches by equality, not identity — bound methods compare equal
        across accesses even though each access builds a fresh object.
        """
        if subscriber in self._subscribers:
            index = self._subscribers.index(subscriber)
            self._subscribers = (
                self._subscribers[:index] + self._subscribers[index + 1:]
            )
            self.has_subscribers = bool(self._subscribers)

    def emit(self, event: StageEvent) -> None:
        """Deliver one event to every subscriber.

        Binds the subscriber tuple once: subscriptions changed by a
        subscriber (or by an interleaved read) take effect from the
        *next* emit.
        """
        for subscriber in self._subscribers:
            subscriber(event)


@dataclass(slots=True)
class StageCell:
    """Aggregate for one (stage, outcome) pair."""

    count: int = 0
    elapsed_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean virtual latency per event (0.0 when empty)."""
        return self.elapsed_ms / self.count if self.count else 0.0


class StageRecorder:
    """Aggregates events into a per-stage outcome + timing breakdown.

    A bus subscriber like any other: subscribe one to a cache's
    ``instrumentation`` before the reads it should see."""

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], StageCell] = {}

    def __call__(self, event: StageEvent) -> None:
        cell = self.cells.get((event.stage, event.outcome))
        if cell is None:
            cell = self.cells[(event.stage, event.outcome)] = StageCell()
        cell.count += 1
        cell.elapsed_ms += event.elapsed_ms

    def rows(self) -> list[tuple[str, str, int, float, float]]:
        """(stage, outcome, count, total_ms, mean_ms), canonical order."""
        def order(key: tuple[str, str]) -> tuple[int, str, str]:
            stage, outcome = key
            try:
                rank = STAGE_ORDER.index(stage)
            except ValueError:
                rank = len(STAGE_ORDER)
            return (rank, stage, outcome)

        return [
            (stage, outcome, cell.count, cell.elapsed_ms, cell.mean_ms)
            for (stage, outcome), cell in sorted(
                self.cells.items(), key=lambda item: order(item[0])
            )
        ]

    def render(self, title: str | None = None) -> str:
        """Plain-text breakdown table (for benches and reports)."""
        lines = []
        if title:
            lines.append(title)
        header = (
            f"{'stage':<14} {'outcome':<27} {'count':>7} "
            f"{'total ms':>12} {'mean ms':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for stage, outcome, count, total, mean in self.rows():
            lines.append(
                f"{stage:<14} {outcome:<27} {count:>7} "
                f"{total:>12.2f} {mean:>10.3f}"
            )
        if len(lines) == (2 if not title else 3):
            lines.append("(no events recorded)")
        return "\n".join(lines)


#: Increment operand: the event's elapsed virtual milliseconds
#: (deprecated with :class:`CounterProjection`).
ELAPSED = "<elapsed>"


class CounterProjection:
    """Derives one stats object's named counters from stage events.

    Deprecated, and wired into no cache: counters are written where
    they are decided.  Kept, with ``CacheStats.RULES`` and
    ``MemoStats.RULES``, for ``perfbench/probes.py`` and as the tests'
    oracle, until a benchmark PR stops the probes constructing it.

    *rules* is the stats dataclass's ``RULES`` table — the single place
    where that seam's event vocabulary meets its counter names.  It
    maps ``(stage, outcome)`` (outcome ``None`` matches any outcome of
    the stage not named explicitly) to a tuple of increments
    ``(field, operand)``: operand ``1`` counts the event,
    :data:`ELAPSED` adds its virtual duration, any other string adds
    that payload key (0 when absent).  A rule may instead be a plain
    ``function(stats, event)`` — reserved for counters whose *name*
    comes from the payload (per-priority sheds, per-class repairs,
    per-reason invalidations).  Increments apply in emission order with
    the operands the event carries, so float sums are bit-for-bit what
    inline mutation at the emit sites would produce.
    """

    def __init__(self, stats, rules: Mapping) -> None:
        self.stats = stats
        self._rules: dict[str, dict] = {}
        for (stage, outcome), rule in rules.items():
            self._rules.setdefault(stage, {})[outcome] = rule

    def __call__(self, event: StageEvent) -> None:
        outcomes = self._rules.get(event.stage)
        if outcomes is None:
            return
        rule = outcomes.get(event.outcome) or outcomes.get(None)
        if rule is None:
            return
        stats = self.stats
        if callable(rule):
            rule(stats, event)
            return
        for name, operand in rule:
            if operand == 1:
                amount = 1
            elif operand is ELAPSED:
                amount = event.ended_ms - event.started_ms
            else:
                amount = event.payload.get(operand, 0)
            setattr(stats, name, getattr(stats, name) + amount)


def StatsProjection(stats: "CacheStats") -> CounterProjection:
    """:class:`CounterProjection` bound to ``CacheStats.RULES``.
    Deprecated: removed, like ``DocumentCache(fast_lane=)``, when a
    benchmark PR stops ``perfbench/probes.py`` constructing it."""
    return CounterProjection(stats, stats.RULES)
