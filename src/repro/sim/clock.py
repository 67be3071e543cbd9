"""Deterministic virtual clock with timer scheduling.

Placeless active properties can register for *timer* events (the paper's
replication property runs "once at the end of the day").  The virtual
clock provides:

* a monotone notion of *now* in milliseconds;
* ``advance``/``charge`` to account simulated latency;
* an ordered schedule of callbacks fired as time passes, which the
  :class:`~repro.events.timers.TimerService` uses to drive timer events.

Everything is single-threaded and deterministic: callbacks scheduled for
the same instant fire in FIFO order of registration.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ClockError

__all__ = ["VirtualClock", "ScheduledCall"]


@dataclass(order=True)
class ScheduledCall:
    """A callback registered to fire at a virtual instant.

    Ordering is (due time, registration serial) so simultaneous callbacks
    fire in FIFO order.  ``cancelled`` calls stay in the heap but are
    skipped when they surface.
    """

    due_ms: float
    serial: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent the callback from firing when its due time arrives."""
        self.cancelled = True


class VirtualClock:
    """A deterministic simulated clock measured in milliseconds.

    The clock never moves backwards.  ``advance`` moves time forward and
    fires any callbacks whose due time is reached, in order, *before*
    returning; a callback may schedule further callbacks, including ones
    due within the window being advanced through.

    ``now_ms`` (read several times per hit) and ``total_charged_ms``
    are plain attributes that only the clock's own methods write;
    ``tests/unit/test_clock.py`` fails if any other module assigns one.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        #: Current virtual time in milliseconds.
        self.now_ms = float(start_ms)
        self._schedule: list[ScheduledCall] = []
        self._serials = itertools.count()
        #: Cumulative latency charged via :meth:`charge` (not ``advance``).
        self.total_charged_ms = 0.0

    def charge(self, cost_ms: float) -> None:
        """Account *cost_ms* of simulated latency.

        Equivalent to :meth:`advance` but additionally tracked in
        :attr:`total_charged_ms` so experiments can separate "time spent
        doing work" from idle time skipped between requests.
        """
        if not cost_ms >= 0:  # negative, or NaN (which compares false)
            raise ClockError(f"cannot charge latency: {cost_ms}")
        self.total_charged_ms += cost_ms
        schedule = self._schedule
        if schedule and schedule[0].due_ms <= self.now_ms + cost_ms:
            self.advance(cost_ms)
        else:  # nothing due inside the window
            self.now_ms += cost_ms

    def advance(self, delta_ms: float) -> None:
        """Move virtual time forward by *delta_ms*, firing due callbacks."""
        if not delta_ms >= 0:  # backwards, or NaN
            raise ClockError(f"cannot advance clock by {delta_ms}")
        target = self.now_ms + delta_ms
        self._run_until(target)
        # A callback fired during the window may itself have advanced the
        # clock past *target* (e.g. a delayed delivery charging hops);
        # time never moves backwards.
        self.now_ms = max(self.now_ms, target)

    def advance_to(self, instant_ms: float) -> None:
        """Move virtual time forward to the absolute instant *instant_ms*."""
        if instant_ms < self.now_ms:
            raise ClockError(
                f"cannot advance to {instant_ms}, already at {self.now_ms}"
            )
        self.advance(instant_ms - self.now_ms)

    def call_at(self, due_ms: float, callback: Callable[[], None]) -> ScheduledCall:
        """Schedule *callback* to run when virtual time reaches *due_ms*."""
        if due_ms < self.now_ms:
            raise ClockError(
                f"cannot schedule at {due_ms}, already at {self.now_ms}"
            )
        call = ScheduledCall(due_ms, next(self._serials), callback)
        heapq.heappush(self._schedule, call)
        return call

    def call_after(
        self, delay_ms: float, callback: Callable[[], None]
    ) -> ScheduledCall:
        """Schedule *callback* to run *delay_ms* from now."""
        if delay_ms < 0:
            raise ClockError(f"cannot schedule in the past: {delay_ms}")
        return self.call_at(self.now_ms + delay_ms, callback)

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled scheduled calls."""
        return sum(1 for call in self._schedule if not call.cancelled)

    def _run_until(self, target_ms: float) -> None:
        """Fire every scheduled call due at or before *target_ms*."""
        while self._schedule and self._schedule[0].due_ms <= target_ms:
            call = heapq.heappop(self._schedule)
            if call.cancelled:
                continue
            # Time visibly jumps to the callback's due instant so callbacks
            # observe a consistent "now" and may schedule relative to it.
            self.now_ms = max(self.now_ms, call.due_ms)
            call.callback()
