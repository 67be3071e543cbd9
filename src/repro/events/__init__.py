"""Event system: the vocabulary and dispatch machinery active properties use.

Active properties in Placeless Documents are event driven (§2 of the
paper): they register for events such as ``get_input_stream``,
``get_output_stream``, property mutations and timers, and are invoked when
those events occur on their document.  This package provides:

* :mod:`repro.events.types` — the event vocabulary and payload record;
* :mod:`repro.events.dispatcher` — per-attachment-point registration with
  the paper's dispatch order (reads run base-then-reference, writes run
  reference-then-base);
* :mod:`repro.events.timers` — timer events driven by the virtual clock.
"""

from repro.events.dispatcher import EventDispatcher, Registration
from repro.events.timers import TimerService, TimerSubscription
from repro.events.types import Event, EventType

__all__ = [
    "Event",
    "EventType",
    "EventDispatcher",
    "Registration",
    "TimerService",
    "TimerSubscription",
]
