"""Event recorder: observability for property debugging.

Active properties are invisible machinery; when a chain misbehaves the
first question is "what was dispatched, where, in what order?".  The
:class:`EventRecorder` is an infrastructure active property that records
every event dispatched at its attachment point (base or reference) with
timestamps, and renders a readable timeline.  Being infrastructure, its
own attachment never triggers notifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty

__all__ = ["RecordedEvent", "EventRecorder"]

#: A default recorder's watch, shared by every one of them.
_EVERY_EVENT = frozenset(EventType)


@dataclass
class RecordedEvent:
    """One observed dispatch."""

    at_ms: float
    event: Event

    def render(self) -> str:
        """One timeline line."""
        return f"{self.at_ms:10.3f}ms  {self.event.describe()}"


class EventRecorder(ActiveProperty):
    """Records every event dispatched at its attachment point."""

    is_infrastructure = True
    execution_cost_ms = 0.0

    def __init__(
        self,
        watch: set[EventType] | None = None,
        name: str = "event-recorder",
    ) -> None:
        super().__init__(name)
        self.interest = frozenset(watch) if watch else _EVERY_EVENT
        self.records: list[RecordedEvent] = []

    def handle(self, event: Event) -> Any:
        record = RecordedEvent(at_ms=event.at_ms, event=event)
        self.records.append(record)
        return record

    def events_seen(self, event_type: EventType | None = None) -> list[Event]:
        """All recorded events, optionally filtered by type."""
        if event_type is None:
            return [record.event for record in self.records]
        return [
            record.event
            for record in self.records
            if record.event.type is event_type
        ]

    def count(self, event_type: EventType) -> int:
        """How many events of *event_type* were recorded."""
        return len(self.events_seen(event_type))

    def clear(self) -> None:
        """Discard the timeline."""
        self.records.clear()

    def timeline(self) -> str:
        """The readable dispatch timeline."""
        if not self.records:
            return "(no events recorded)"
        return "\n".join(record.render() for record in self.records)
