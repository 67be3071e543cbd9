"""Shared property-holding behaviour of base documents and references.

Both attachment points manage an *ordered* chain of properties — order is
semantically significant (§3: "the result of applying a spell checking
property to a document varies whether it is applied before or after a
language translation property") — and both raise property-lifecycle
events (SET / MODIFY / REMOVE / REORDER) through their dispatcher so
notifier properties can observe them.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator

from repro.errors import (
    DuplicatePropertyError,
    PropertyNotFoundError,
    PropertyOrderError,
)
from repro.events.dispatcher import EventDispatcher
from repro.events.types import Event, EventType
from repro.ids import PropertyId, UserId
from repro.placeless.properties import ActiveProperty, AttachmentSite, Property
from repro.sim.context import SimContext

__all__ = ["PropertyHolder"]


class PropertyHolder(abc.ABC):
    """Ordered property chain + lifecycle-event plumbing."""

    site: AttachmentSite
    #: ``(registrations, chain)`` as last compiled by :meth:`write_chain`;
    #: class-level, so a holder never written carries no attribute for it.
    _write_chain: tuple[tuple, tuple[ActiveProperty, ...]] = ((), ())

    def __init__(self, ctx: SimContext, owner: UserId) -> None:
        self.ctx = ctx
        self.owner = owner
        self.dispatcher = EventDispatcher()
        self._properties: list[Property] = []
        #: name -> how many attached properties carry it (names may
        #: repeat); what makes :meth:`has_property` one probe however
        #: many notifiers the caches have armed here.
        self._names: dict[str, int] = {}
        #: ``(chain_epoch, chain)`` as last compiled by :meth:`read_chain`.
        self._read_chain: tuple[int, tuple[ActiveProperty, ...]] = (-1, ())
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
        return [p for p in self._properties if isinstance(p, ActiveProperty)]

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

    # -- chain mutation ----------------------------------------------------------

    def attach(self, prop: Property, acting_user: UserId | None = None) -> Property:
        """Attach *prop* at the end of the chain.

        Raises SET_PROPERTY through the dispatcher after registration so
        notifiers (including ones attached earlier) observe the addition.
        """
        if prop.is_attached:
            raise DuplicatePropertyError(
                f"{prop.name!r} is already attached elsewhere"
            )
        # Checked before anything moves: a bad interest set raises
        # UnknownEventError and leaves no half-attached property behind.
        active = isinstance(prop, ActiveProperty)
        interest = (
            EventDispatcher.checked(prop.events_of_interest())
            if active else frozenset()
        )
        reads = EventType.GET_INPUT_STREAM in interest
        property_id = self.ctx.ids.property(prop.name)
        prop._bind(self, property_id, self.site, acting_user or self.owner)
        self._properties.append(prop)
        self._names[prop.name] = self._names.get(prop.name, 0) + 1
        # Announce the addition to the *previously* registered properties
        # before registering the newcomer, so a property does not observe
        # its own attachment (mirroring removal, where the property is
        # unregistered before REMOVE_PROPERTY is raised) — if any listen.
        if self.dispatcher.registrations(EventType.SET_PROPERTY):
            self.dispatcher.dispatch(self.make_event(
                EventType.SET_PROPERTY, user=acting_user or self.owner,
                payload=self._property_payload(prop, reads),
            ))
        if active:
            # One registration for the whole interest set (none for an
            # empty one).  Registration is what puts the property on a
            # stream chain, so the epoch moves here, not at the append.
            if interest:
                prop._registration = self.dispatcher.register(
                    prop.property_id, interest, prop
                )
            if reads:
                self.chain_epoch += 1
            prop.on_attach()
        return prop

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
        """Detach *prop*, cancelling its registrations.

        Raises REMOVE_PROPERTY *after* the removal (with the property no
        longer registered), so the remover does not observe its own event.
        """
        if prop not in self._properties:
            raise PropertyNotFoundError(prop.name)
        self._properties.remove(prop)
        remaining = self._names.pop(prop.name) - 1
        if remaining:
            self._names[prop.name] = remaining
        reads = False
        if isinstance(prop, ActiveProperty):
            reads = self._read_chain_changed(prop)
            prop.on_detach()
            if prop._registration is not None:
                prop._registration.cancel()
                prop._registration = None
            self.dispatcher.unregister_property(prop.property_id)
        payload = self._property_payload(prop, reads)
        prop._unbind()
        self.dispatcher.dispatch(
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

        Dispatch order of every registered handler follows, and a
        REORDER_PROPERTIES event is raised (§3 consistency class 3).
        """
        current = {p.property_id: p for p in self._properties}
        if set(new_order) != set(current) or len(new_order) != len(current):
            raise PropertyOrderError(
                "new order must be a permutation of the attached properties"
            )
        old_order = [p.property_id for p in self._properties]
        self._properties = [current[pid] for pid in new_order]
        self.dispatcher.reorder(new_order)
        self.chain_epoch += 1
        self.dispatcher.dispatch(
            self.make_event(
                EventType.REORDER_PROPERTIES,
                user=acting_user or self.owner,
                payload={"old_order": old_order, "new_order": list(new_order)},
            )
        )

    def property_modified(self, prop: Property) -> None:
        """Raise MODIFY_PROPERTY for *prop* (e.g. after an upgrade)."""
        reads = self._read_chain_changed(prop)
        self.dispatcher.dispatch(
            self.make_event(
                EventType.MODIFY_PROPERTY,
                user=prop.owner,
                payload=self._property_payload(prop, reads),
            )
        )

    # -- read/write path helpers --------------------------------------------

    def _read_chain_changed(self, prop: Property) -> bool:
        """Move the epoch if *prop* is (still) on the read stream chain;
        True when it is."""
        if prop.property_id in self.dispatcher.registered_properties(
            EventType.GET_INPUT_STREAM
        ):
            self.chain_epoch += 1
            return True
        return False

    def read_chain(self) -> tuple[ActiveProperty, ...]:
        """The ``GET_INPUT_STREAM`` chain, compiled once per epoch.

        What the kernel's read path and the cache's
        :class:`~repro.placeless.chain.ReadPlan` both walk.  Every change
        of that chain's members or order moves :attr:`chain_epoch`, and
        arming a notifier does not, so a read costs the same however
        many caches and users watch this holder.
        """
        epoch, chain = self._read_chain
        if epoch != self.chain_epoch:
            chain = tuple(self.stream_chain(EventType.GET_INPUT_STREAM))
            self._read_chain = (self.chain_epoch, chain)
        return chain

    def write_chain(self) -> tuple[ActiveProperty, ...]:
        """The ``GET_OUTPUT_STREAM`` chain, compiled once per version of
        the dispatcher's registration tuple for that type (every
        register, unregister and reorder replaces the tuple)."""
        registered = self.dispatcher.registrations(EventType.GET_OUTPUT_STREAM)
        compiled_for, chain = self._write_chain
        if compiled_for is not registered:
            chain = tuple(self.stream_chain(EventType.GET_OUTPUT_STREAM))
            self._write_chain = (registered, chain)
        return chain

    def stream_chain(self, event_type: EventType) -> list[ActiveProperty]:
        """Active properties registered for a stream event, in chain order.

        These are the properties whose custom streams join the calling
        chain for that operation, derived per call; reads and writes
        go through :meth:`read_chain` and :meth:`write_chain`.
        """
        registered = set(self.dispatcher.registered_properties(event_type))
        return [
            p for p in self.active_properties() if p.property_id in registered
        ]
