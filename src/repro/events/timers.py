"""Timer events driven by the virtual clock.

The paper's replication property "is invoked only as a result of timer
events, assuming that Eyal's replication between PARC and Rice occurs only
once at the end of the day".  The :class:`TimerService` lets a property
subscribe to one-shot or periodic timers; when a timer fires, the service
builds a :class:`~repro.events.types.Event` of type ``TIMER`` and hands
it to the subscriber's ``deliver``; cancelling the subscription (as
detaching the property does) stops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ClockError
from repro.events.types import Event, EventType
from repro.ids import DocumentId, PropertyId
from repro.sim.clock import ScheduledCall, VirtualClock

__all__ = ["TimerSubscription", "TimerService"]


@dataclass(eq=False)
class TimerSubscription:
    """A live timer owned by one property on one document (compared, and
    hashed, by identity)."""

    property_id: PropertyId
    document_id: DocumentId
    period_ms: float | None
    deliver: Callable[[Event], None]
    cancelled: bool = False
    fires: int = 0
    _scheduled: ScheduledCall | None = field(default=None, repr=False)
    _service: TimerService | None = field(default=None, repr=False)

    def cancel(self) -> None:
        """Stop the timer; a periodic timer will not re-arm.  The service
        forgets it, and with it :attr:`deliver` (a detached property)."""
        self.cancelled = True
        if self._scheduled is not None:
            self._scheduled.cancel()
        if self._service is not None:
            self._service._forget(self)


class TimerService:
    """Schedules TIMER events for properties on the virtual clock."""

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        #: The live subscriptions, in subscription order: a cancelled
        #: one or a fired one-shot is dropped at once.
        self._subscriptions: dict[TimerSubscription, None] = {}

    def subscribe_once(
        self,
        property_id: PropertyId,
        document_id: DocumentId,
        delay_ms: float,
        deliver: Callable[[Event], None],
    ) -> TimerSubscription:
        """Fire one TIMER event after *delay_ms*."""
        return self._subscribe(property_id, document_id, delay_ms, None, deliver)

    def subscribe_periodic(
        self,
        property_id: PropertyId,
        document_id: DocumentId,
        period_ms: float,
        deliver: Callable[[Event], None],
    ) -> TimerSubscription:
        """Fire a TIMER event every *period_ms* until cancelled."""
        if period_ms <= 0:
            raise ClockError(f"period must be positive: {period_ms}")
        return self._subscribe(
            property_id, document_id, period_ms, period_ms, deliver
        )

    def live_subscriptions(self) -> list[TimerSubscription]:
        """Every subscription not cancelled and not a fired one-shot."""
        return list(self._subscriptions)

    def _forget(self, subscription: TimerSubscription) -> None:
        self._subscriptions.pop(subscription, None)

    def _subscribe(
        self,
        property_id: PropertyId,
        document_id: DocumentId,
        first_delay_ms: float,
        period_ms: float | None,
        deliver: Callable[[Event], None],
    ) -> TimerSubscription:
        subscription = TimerSubscription(
            property_id=property_id,
            document_id=document_id,
            period_ms=period_ms,
            deliver=deliver,
            _service=self,
        )
        self._subscriptions[subscription] = None
        self._arm(subscription, first_delay_ms)
        return subscription

    def _arm(self, subscription: TimerSubscription, delay_ms: float) -> None:
        def fire() -> None:
            if subscription.cancelled:
                return
            subscription.fires += 1
            event = Event(
                type=EventType.TIMER,
                document_id=subscription.document_id,
                payload={"property_id": subscription.property_id},
                at_ms=self._clock.now_ms,
            )
            if subscription.period_ms is None:
                self._forget(subscription)
            subscription.deliver(event)
            if subscription.period_ms is not None and not subscription.cancelled:
                self._arm(subscription, subscription.period_ms)

        subscription._scheduled = self._clock.call_after(delay_ms, fire)
