"""Per-attachment-point event registration and ordered dispatch.

Each base document and each document reference owns one
:class:`EventDispatcher`.  When an event occurs, "all registered
properties on that document are invoked" (§2) — in the order the
properties are attached, because §3 makes property *order* a consistency
dimension (spell-check before vs. after translation).

A property registers once for its whole interest set: one
:class:`Registration` is listed under each event type it names, so one
``cancel()`` silences it everywhere.  The table holds an entry only for
a type somebody watches, and that entry is an immutable tuple rebuilt
on each change; an unwatched type costs a dispatcher nothing, which
matters because every holder owns one and every (document, user) pair a
cache sees arms three notifiers on it.

The dispatcher does not know about base-vs-reference ordering; the
document objects compose their two dispatchers in the paper's order
(reads: base first, then reference; writes: reference first, then base).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable

from repro.errors import UnknownEventError
from repro.events.types import Event, EventType
from repro.ids import PropertyId

__all__ = ["Registration", "EventDispatcher"]

Handler = Callable[[Event], Any]
_EVENT_TYPES = frozenset(EventType)


@dataclass(slots=True, eq=False)
class Registration:
    """One property's interest in a set of event types (compared, and
    hashed, by identity)."""

    property_id: PropertyId
    #: The caller's frozenset, kept as is (properties share theirs).
    event_types: frozenset[EventType]
    handler: Handler
    active: bool = True

    def cancel(self) -> None:
        """Stop this registration from receiving further events."""
        self.active = False


class EventDispatcher:
    """Ordered event registration table for one attachment point.

    Registrations for each watched event type are kept in a tuple whose
    order follows property attachment order; :meth:`reorder` re-sorts
    every tuple when the owning document's property chain is permuted.
    """

    def __init__(self) -> None:
        self._registrations: dict[EventType, tuple[Registration, ...]] = {}

    @staticmethod
    def checked(event_types: AbstractSet[EventType]) -> frozenset[EventType]:
        """*event_types* as a frozenset (the same object if it is one),
        or :class:`UnknownEventError` if a member is not an event type."""
        types = frozenset(event_types)
        if types <= _EVENT_TYPES:
            return types
        raise UnknownEventError(next(iter(types - _EVENT_TYPES)))

    def register(
        self,
        property_id: PropertyId,
        event_types: AbstractSet[EventType],
        handler: Handler,
    ) -> Registration:
        """Register *handler* for every type in *event_types* on behalf
        of a property, as one registration."""
        event_types = self.checked(event_types)
        registration = Registration(property_id, event_types, handler)
        table = self._registrations
        for event_type in event_types:
            table[event_type] = table.get(event_type, ()) + (registration,)
        return registration

    def unregister_property(self, property_id: PropertyId) -> int:
        """Drop every registration owned by *property_id*.

        Returns the number of distinct registrations removed.  Called
        when a property is detached from its document; a type nobody
        watches any more loses its entry.
        """
        removed: set[Registration] = set()
        table: dict[EventType, tuple[Registration, ...]] = {}
        for event_type, registrations in self._registrations.items():
            removed.update(
                r for r in registrations if r.property_id == property_id
            )
            kept = tuple(r for r in registrations if r not in removed)
            if kept:
                table[event_type] = kept
        self._registrations = table
        return len(removed)

    def registrations(self, event_type: EventType) -> tuple[Registration, ...]:
        """The type's registration tuple: replaced on every change."""
        return self._registrations.get(event_type, ())

    def registered_properties(self, event_type: EventType) -> list[PropertyId]:
        """Property ids with live registrations for *event_type*, in order."""
        return [
            r.property_id
            for r in self._registrations.get(event_type, ())
            if r.active
        ]

    def has_listener(self, event_type: EventType) -> bool:
        """True if any live registration exists for *event_type*."""
        return any(r.active for r in self._registrations.get(event_type, ()))

    def reorder(self, chain_order: list[PropertyId]) -> None:
        """Re-sort registrations to follow a new property chain order.

        Properties absent from *chain_order* (e.g. infrastructure handlers
        registered by the system itself) keep their relative order and sort
        after the ordered chain, preserving the invariant that user-visible
        transformations happen in chain order.
        """
        rank = {pid: index for index, pid in enumerate(chain_order)}
        fallback = len(rank)
        for event_type, registrations in self._registrations.items():
            self._registrations[event_type] = tuple(sorted(
                registrations,
                key=lambda r: rank.get(r.property_id, fallback),
            ))

    def dispatch(self, event: Event) -> list[Any]:
        """Invoke every live handler registered for the event's type.

        Handlers run in registration (chain) order; each handler's return
        value is collected.  The type's tuple is the snapshot: a
        registration added by a handler replaces it, and so first runs on
        the next dispatch.  Liveness is checked per handler, though: a
        handler that cancels a later registration — as detaching its
        property does — stops it within this same dispatch.
        """
        registrations = self._registrations.get(event.type)
        if not registrations:
            return []
        results: list[Any] = []
        for registration in registrations:
            if not registration.active:
                continue
            results.append(registration.handler(event))
        return results
