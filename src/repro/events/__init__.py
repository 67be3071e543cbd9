"""Event system: the vocabulary and timers active properties use.

Active properties in Placeless Documents are event driven (§2 of the
paper): they register for events such as ``get_input_stream``,
``get_output_stream``, property mutations and timers, and are invoked when
those events occur on their document.  The property chain is the event
table: a document or reference dispatches to its own attached properties
in chain order (:meth:`repro.placeless.propertyset.PropertyHolder.dispatch`;
reads run base-then-reference, writes reference-then-base).  This package
provides:

* :mod:`repro.events.types` — the event vocabulary and payload record;
* :mod:`repro.events.timers` — timer events driven by the virtual clock.
"""

from repro.events.timers import TimerService, TimerSubscription
from repro.events.types import Event, EventType

__all__ = [
    "Event",
    "EventType",
    "TimerService",
    "TimerSubscription",
]
