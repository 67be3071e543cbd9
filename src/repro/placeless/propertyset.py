"""Shared property-holding behaviour of base documents and references.

Both attachment points manage an *ordered* chain of properties — order is
semantically significant (§3: "the result of applying a spell checking
property to a document varies whether it is applied before or after a
language translation property") — and the chain is also the event
table: when an event occurs, "all registered properties on that
document are invoked" (§2), in chain order.  Lifecycle events (SET /
MODIFY / REMOVE / REORDER) go through the same dispatch, so notifier
properties can observe them.

A holder keeps, per event type it has dispatched, the tuple of the
properties watching that type, in chain order: built from the chain by
the type's first dispatch and dropped when a property watching the type
attaches or detaches, or the chain is reordered.  An event type nobody
dispatches costs nothing, and a read walks only its own type's tuple, so
it costs the same however many caches and users have armed notifiers
on the holder.  Whether anybody listens at all is one bitmask test.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Any, Iterator

from repro.errors import (
    DuplicatePropertyError,
    PropertyNotFoundError,
    PropertyOrderError,
    UnknownEventError,
)
from repro.events.types import Event, EventType
from repro.ids import PropertyId, UserId
from repro.placeless.properties import ActiveProperty, AttachmentSite, Property
from repro.sim.context import SimContext

__all__ = ["PropertyHolder"]

#: One bit per event type: a holder's :attr:`~PropertyHolder._watched`.
_BITS = {event_type: 1 << index for index, event_type in enumerate(EventType)}
_READS = EventType.GET_INPUT_STREAM
_WRITES = EventType.GET_OUTPUT_STREAM
_READ_BIT, _WRITE_BIT = _BITS[_READS], _BITS[_WRITES]
_SET_PROPERTY_BIT = _BITS[EventType.SET_PROPERTY]
#: The table of a holder that has built none; never written.
_NO_CHAINS: dict[EventType, tuple[ActiveProperty, ...]] = {}
#: Interest set -> its bits, for every set an attach has checked.
_MASKS: dict[frozenset[EventType], int] = {}


def _mask(event_types: AbstractSet[EventType]) -> int:
    """The bits of *event_types*, or :class:`UnknownEventError` if a
    member is not an event type."""
    mask = 0
    for event_type in event_types:
        if event_type not in _BITS:
            raise UnknownEventError(event_type)
        mask |= _BITS[event_type]
    return mask


class PropertyHolder(abc.ABC):
    """Ordered property chain, dispatched in chain order."""

    site: AttachmentSite

    def __init__(self, ctx: SimContext, owner: UserId) -> None:
        self.ctx = ctx
        self.owner = owner
        #: The shared empty tuple until the first attach makes a list.
        self._properties: list[Property] | tuple[()] = ()
        #: The bits of every event type some attached property watches.
        self._watched = 0
        #: Event type -> the attached properties watching it, in chain
        #: order: what :meth:`dispatch`, :meth:`read_chain` and
        #: :meth:`write_chain` walk.  The shared empty table until a
        #: watched type is first dispatched.
        self._chains = _NO_CHAINS
        #: name -> how many attached properties carry it (names may
        #: repeat); what makes :meth:`has_property` one probe however
        #: many notifiers the caches have armed here.
        self._names: dict[str, int] = {}
        #: Bumped whenever the *read* stream chain's members, order or
        #: releases move (attach, detach, reorder, modify — §3's
        #: invalidation classes (b) and (c)); a cached
        #: :class:`~repro.placeless.chain.ReadPlan` is valid only while
        #: the epochs it was compiled under still stand.  Properties
        #: off the read chain (static labels, the notifiers a cache
        #: installs at fill time) leave it alone.
        self.chain_epoch = 0

    # -- event construction (site-specific) ---------------------------------

    @abc.abstractmethod
    def make_event(
        self,
        event_type: EventType,
        user: UserId | None = None,
        payload: dict[str, Any] | None = None,
    ) -> Event:
        """Build an event carrying this attachment point's identifiers."""

    # -- chain access ----------------------------------------------------------

    @property
    def properties(self) -> list[Property]:
        """The property chain, in attachment (execution) order."""
        return list(self._properties)

    def active_properties(self) -> list[ActiveProperty]:
        """Only the active properties, in chain order."""
        return [p for p in self._properties if p.is_active]

    def find_property(self, name: str) -> Property:
        """First property named *name*; raises if absent."""
        for prop in self._properties:
            if prop.name == name:
                return prop
        raise PropertyNotFoundError(name)

    def has_property(self, name: str) -> bool:
        """True if any attached property is named *name*."""
        return name in self._names

    def __iter__(self) -> Iterator[Property]:
        return iter(self._properties)

    def __len__(self) -> int:
        return len(self._properties)

    # -- dispatch ------------------------------------------------------------------

    def has_listener(self, event_type: EventType) -> bool:
        """True if some attached property watches *event_type*."""
        return self._watched & _BITS[event_type] != 0

    def dispatch(self, event: Event) -> list[Any]:
        """Invoke every property watching the event's type, in chain
        order, and collect what each returns.

        The type's tuple is the snapshot: a property attached by a
        handler replaces it, and so first runs on the next dispatch.
        Each property is checked to be still attached before it runs,
        though: a handler that detaches a later property stops it
        within this same dispatch.
        """
        event_type = event.type
        chains = self._chains
        if event_type in chains:
            chain = chains[event_type]
        elif self._watched & _BITS[event_type]:
            chain = self._build_chain(event_type)
        else:
            return []
        results: list[Any] = []
        for prop in chain:
            if prop._attachment is self:
                results.append(prop(event))
        return results

    def _build_chain(self, event_type: EventType) -> tuple[ActiveProperty, ...]:
        """Build a watched *event_type*'s tuple from the chain, and keep
        it."""
        chain = tuple([
            p for p in self._properties if event_type in p._watching
        ])
        chains = self._chains
        if chains is _NO_CHAINS:
            chains = self._chains = {}
        chains[event_type] = chain
        return chain

    def _drop_chains(self, event_types: AbstractSet[EventType]) -> None:
        """Forget the tuples of *event_types*: they are rebuilt on
        their next dispatch."""
        chains = self._chains
        for event_type in event_types:
            chains.pop(event_type, None)  # never writes _NO_CHAINS

    def read_chain(self) -> tuple[ActiveProperty, ...]:
        """The ``GET_INPUT_STREAM`` chain, as dispatched.

        What the kernel's read path and the cache's
        :class:`~repro.placeless.chain.ReadPlan` both walk.  Every change
        of that chain's members or order moves :attr:`chain_epoch`, and
        arming a notifier does neither, so a read costs the same however
        many caches and users watch this holder.
        """
        chains = self._chains
        if _READS in chains:
            return chains[_READS]
        return self._build_chain(_READS) if self._watched & _READ_BIT else ()

    def write_chain(self) -> tuple[ActiveProperty, ...]:
        """The ``GET_OUTPUT_STREAM`` chain, as dispatched: kept until a
        property watching writes attaches or detaches, or a reorder."""
        chains = self._chains
        if _WRITES in chains:
            return chains[_WRITES]
        return self._build_chain(_WRITES) if self._watched & _WRITE_BIT else ()

    # -- chain mutation ----------------------------------------------------------

    def attach(self, prop: Property, acting_user: UserId | None = None) -> Property:
        """Attach *prop* at the end of the chain.

        Raises SET_PROPERTY for the properties attached before it, so
        notifiers observe the addition, and only then starts dispatching
        to *prop*.  A SET_PROPERTY handler that raises rolls the attach
        back before the error propagates.
        """
        if prop._attachment is not None:
            raise DuplicatePropertyError(
                f"{prop.name!r} is already attached elsewhere"
            )
        # Checked before anything moves: a bad interest set raises
        # UnknownEventError and leaves no half-attached property behind.
        active = prop.is_active
        interest = frozenset(prop.events_of_interest()) if active else frozenset()
        mask = _MASKS.get(interest)
        if mask is None:
            mask = _MASKS[interest] = _mask(interest)
        reads = _READS in interest
        property_id = self.ctx.ids.property(prop.name)
        prop._bind(self, property_id, self.site, acting_user or self.owner)
        self._properties = self._properties or []  # a list from now on
        self._properties.append(prop)
        self._names[prop.name] = self._names.get(prop.name, 0) + 1
        # Announce the addition to the properties already listening
        # before the newcomer joins them, so a property does not observe
        # its own attachment (mirroring removal) — if any listen.
        if self._watched & _SET_PROPERTY_BIT:
            try:
                self.dispatch(self.make_event(
                    EventType.SET_PROPERTY, user=acting_user or self.owner,
                    payload=self._property_payload(prop, reads),
                ))
            except BaseException:
                self._forget(prop)
                prop._unbind()
                raise
        if active:
            # Watching is what puts the property on a stream chain, so
            # the epoch moves here, not at the append.
            if interest:
                prop._watching = interest
                self._watched |= mask
                if self._chains:
                    self._drop_chains(interest)
            if reads:
                self.chain_epoch += 1
            prop.on_attach()
        return prop

    def _forget(self, prop: Property) -> None:
        """Take *prop* out of the chain and the name index."""
        self._properties.remove(prop)
        remaining = self._names.pop(prop.name) - 1
        if remaining:
            self._names[prop.name] = remaining

    @staticmethod
    def _property_payload(prop: Property, reads: bool) -> dict[str, Any]:
        """Event payload describing a property, for notifier filtering.

        Notifiers only invalidate for "additions or deletions of active
        properties that could modify the content" (§3), so the payload
        carries whether the property is active, whether it transforms
        reads, whether it *reads* at all — is on the read chain, where it
        may also vote on cacheability or check the reader — and whether
        it is cache infrastructure (notifiers themselves must not
        trigger each other).
        """
        return {
            "property_id": prop.property_id,
            "name": prop.name,
            "is_active": prop.is_active,
            "transforms_reads": getattr(prop, "transforms_reads", False),
            "on_read_path": reads,
            "infrastructure": getattr(prop, "is_infrastructure", False),
        }

    def detach(self, prop: Property, acting_user: UserId | None = None) -> None:
        """Detach *prop*, which stops hearing events at once.

        Raises REMOVE_PROPERTY *after* the removal, so the remover does
        not observe its own event.
        """
        if prop not in self._properties:
            raise PropertyNotFoundError(prop.name)
        self._forget(prop)
        # Judged by what the property watched, not by the chain it has
        # already left.
        reads = self._read_chain_changed(prop)
        if prop.is_active:
            prop.on_detach()
            interest = prop._watching
            if interest:
                prop._watching = frozenset()
                self._drop_chains(interest)
                watched = 0
                for other in self._properties:
                    if other._watching:
                        watched |= _mask(other._watching)
                self._watched = watched
        payload = self._property_payload(prop, reads)
        prop._unbind()
        self.dispatch(
            self.make_event(
                EventType.REMOVE_PROPERTY,
                user=acting_user or self.owner,
                payload=payload,
            )
        )

    def detach_by_name(self, name: str, acting_user: UserId | None = None) -> None:
        """Detach the first property named *name*."""
        self.detach(self.find_property(name), acting_user)

    def reorder(
        self,
        new_order: list[PropertyId],
        acting_user: UserId | None = None,
    ) -> None:
        """Permute the property chain to *new_order* (a full permutation).

        Dispatch order follows the chain, and a REORDER_PROPERTIES event
        is raised (§3 consistency class 3).
        """
        current = {p.property_id: p for p in self._properties}
        if set(new_order) != set(current) or len(new_order) != len(current):
            raise PropertyOrderError(
                "new order must be a permutation of the attached properties"
            )
        old_order = [p.property_id for p in self._properties]
        self._properties = [current[pid] for pid in new_order]
        self._chains = _NO_CHAINS
        self.chain_epoch += 1
        self.dispatch(
            self.make_event(
                EventType.REORDER_PROPERTIES,
                user=acting_user or self.owner,
                payload={"old_order": old_order, "new_order": list(new_order)},
            )
        )

    def property_modified(self, prop: Property) -> None:
        """Raise MODIFY_PROPERTY for *prop* (e.g. after an upgrade)."""
        reads = self._read_chain_changed(prop)
        self.dispatch(
            self.make_event(
                EventType.MODIFY_PROPERTY,
                user=prop.owner,
                payload=self._property_payload(prop, reads),
            )
        )

    def _read_chain_changed(self, prop: Property) -> bool:
        """Move the epoch if *prop* watches reads (is on the read stream
        chain); True when it does."""
        if _READS in prop._watching:
            self.chain_epoch += 1
            return True
        return False
