"""Event vocabulary for the Placeless Documents system.

The paper names ``getInputStream``, ``getOutputStream``, ``modify
property``, ``set property`` and ``timer`` as examples of events active
properties can register for; the prototype additionally needs events for
property removal and re-ordering (both invalidate caches, §3), for content
updates snooped through the system, and for the operations a cache
forwards when a property voted ``CACHEABLE_WITH_EVENTS``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.ids import DocumentId, ReferenceId, UserId

__all__ = ["EventType", "Event"]


class EventType(enum.Enum):
    """Every event kind a property may register for."""

    #: An application asked to read the document's content.  Properties on
    #: this event may interpose a custom input stream (the read path).
    GET_INPUT_STREAM = "get-input-stream"
    #: An application asked to write the document's content.  Properties on
    #: this event may interpose a custom output stream (the write path).
    GET_OUTPUT_STREAM = "get-output-stream"
    #: A new property was attached to the document.
    SET_PROPERTY = "set-property"
    #: An existing property's state/parameters changed (e.g. a spelling
    #: corrector upgraded to a new release).
    MODIFY_PROPERTY = "modify-property"
    #: A property was detached from the document.
    REMOVE_PROPERTY = "remove-property"
    #: The relative order of active properties changed (§3 consistency
    #: class 3: spell-check before vs. after translation differs).
    REORDER_PROPERTIES = "reorder-properties"
    #: A timer subscription fired (drives e.g. nightly replication).
    TIMER = "timer"
    #: Content was updated *through* the Placeless system (in-band); the
    #: system snoops these, unlike out-of-band repository changes.
    CONTENT_UPDATED = "content-updated"
    #: A cache with a ``CACHEABLE_WITH_EVENTS`` entry served a read hit and
    #: forwards the operation so registered properties still observe it,
    #: without the system executing the full read.
    READ_FORWARDED = "read-forwarded"
    #: Same as :attr:`READ_FORWARDED` for writes under a write-back cache.
    WRITE_FORWARDED = "write-forwarded"

    # Members are singletons keyed into every holder's dispatch table:
    # identity hashing, not Enum's Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__

    @property
    def is_stream_event(self) -> bool:
        """True for the two events that carry stream interposition."""
        return self in (EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM)

    @property
    def is_forwarded(self) -> bool:
        """True for operations forwarded by a cache rather than executed."""
        return self in (EventType.READ_FORWARDED, EventType.WRITE_FORWARDED)


@dataclass
class Event:
    """One occurrence of an event on a document.

    Attributes
    ----------
    type:
        The event kind.
    document_id:
        The base document the event concerns.
    user_id:
        The acting user (owner of the reference the operation came
        through), or ``None`` for events with no acting user (timers,
        out-of-band notifications).
    reference_id:
        The reference the operation came through, when applicable.
    payload:
        Event-kind-specific details (e.g. the property id for property
        mutations, the new order for reorders, byte counts for forwarded
        operations).
    at_ms:
        Virtual time the event was raised.
    """

    type: EventType
    document_id: DocumentId
    user_id: UserId | None = None
    reference_id: ReferenceId | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    at_ms: float = 0.0

    def describe(self) -> str:
        """Human-readable one-line description for traces and logs."""
        who = str(self.user_id) if self.user_id else "<system>"
        return f"{self.type.value} on {self.document_id} by {who} @{self.at_ms:.3f}ms"
