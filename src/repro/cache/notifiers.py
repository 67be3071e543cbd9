"""Notifiers: active properties that push invalidations to caches.

"Notifiers are active properties themselves that are used to invalidate
cache entries resulting from changes through the Placeless system.
Notifiers send a notification to each of the affected caches to
invalidate the corresponding entries. ... Notifiers, in fact, integrate
the notion of semantic validators and callbacks into one mechanism." (§3)

Pieces:

* :class:`InvalidationBus` — the delivery fabric between the Placeless
  servers (where notifiers execute) and the caches; charges the
  notifier-path network hops and counts deliveries in its own
  :class:`BusStats`, which is the "load to the Placeless system" side
  of the A1 trade-off.
* :class:`NotifierProperty` — a configurable notifier: which events it
  watches, how each maps to an invalidation reason, an optional semantic
  *predicate* (the semantic-callback integration), and the entry scope it
  invalidates (one user's version or every user's).
* :func:`install_minimum_notifiers` — the "minimum set of notifiers"
  whose creation cost Table 1's miss column includes: a base notifier for
  writes by other users, a base notifier for content-affecting property
  changes, and a reference notifier for the user's personal property
  changes (§3's worked example, verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.contract.consistency import Invalidation, InvalidationReason
from repro.errors import NotifierError
from repro.events.types import Event, EventType
from repro.ids import CacheId, UserId
from repro.placeless.properties import ActiveProperty
from repro.placeless.reference import DocumentReference
from repro.sim.context import SimContext

__all__ = [
    "InvalidationBus",
    "ChannelState",
    "NotifierProperty",
    "install_minimum_notifiers",
    "DEFAULT_REASON_MAP",
]

#: How watched events map to invalidation reasons by default; shared,
#: read-only, by every notifier that overrides nothing.
DEFAULT_REASON_MAP: Mapping[EventType, InvalidationReason] = MappingProxyType({
    EventType.CONTENT_UPDATED: InvalidationReason.SOURCE_UPDATED_IN_BAND,
    EventType.GET_OUTPUT_STREAM: InvalidationReason.OPENED_FOR_WRITE,
    EventType.SET_PROPERTY: InvalidationReason.PROPERTY_ADDED,
    EventType.REMOVE_PROPERTY: InvalidationReason.PROPERTY_REMOVED,
    EventType.MODIFY_PROPERTY: InvalidationReason.PROPERTY_MODIFIED,
    EventType.REORDER_PROPERTIES: InvalidationReason.PROPERTY_REORDERED,
    EventType.TIMER: InvalidationReason.EXTERNAL_CHANGED,
})

#: The minimum set's two watch sets (§3's worked example), built once:
#: writes, and the property changes (those that can change content,
#: plus reordering).
_WRITE_WATCH = frozenset({EventType.GET_OUTPUT_STREAM, EventType.CONTENT_UPDATED})
_CHANGE_EVENTS = frozenset({
    EventType.SET_PROPERTY, EventType.REMOVE_PROPERTY, EventType.MODIFY_PROPERTY
})
_PROPERTY_WATCH = _CHANGE_EVENTS | {EventType.REORDER_PROPERTIES}


@dataclass
class BusStats:
    """Delivery-side counters (the notifier load on the system),
    written by the :class:`InvalidationBus` that owns them."""

    deliveries: int = 0
    delivery_cost_ms: float = 0.0
    #: Deliveries to a cache id with no registered sink.
    dropped: int = 0
    #: Deliveries silently discarded by fault injection or a downed
    #: link (the paper's lost-callback problem) and deliveries deferred
    #: by injected delay.
    lost: int = 0
    delayed: int = 0
    delay_ms_total: float = 0.0


class NotifierNames(dict[UserId, str]):
    """One cache's minimum-set notifier names, each built once: the two
    property watches', and (keyed by owner) each user's write watch's.
    Every document the cache arms shares these strings."""

    __slots__ = ("cache_id", "base_properties", "ref_properties")

    def __init__(self, cache_id: CacheId) -> None:
        super().__init__()
        self.cache_id = cache_id
        self.base_properties = f"notify-base-properties:{cache_id.value}"
        self.ref_properties = f"notify-ref-properties:{cache_id.value}"

    def __missing__(self, owner: UserId) -> str:
        name = self[owner] = f"notify-writes:{self.cache_id.value}:{owner.value}"
        return name


@dataclass
class ChannelState:
    """Bus-side send state for one sequenced (server, cache) channel.

    Every delivery *attempt* consumes a sequence number — including ones
    fault injection subsequently drops — which is exactly what makes
    receiver-side gap detection possible: the receiver sees the sequence
    jump (or, for a trailing loss, learns the send-side high-water mark
    at lease renewal) and knows something never arrived.
    """

    epoch: int = 1
    next_sequence: int = 1


class InvalidationBus:
    """Routes invalidations from notifier properties to registered caches.

    When the context carries a :class:`~repro.faults.plan.FaultPlan`,
    each delivery is gated through it: the notification may be silently
    *lost* (never arrives — the cache entry it should have killed lives
    on until a verifier catches it) or *delayed* (scheduled on the
    virtual clock and delivered later).  Lost invalidations are remembered
    per document so the cache manager can count how many of them a
    verifier subsequently detected.

    Delivery accounting is the bus's own: each delivered, dropped, lost
    or delayed invalidation adds into :attr:`stats` where it happens.
    It emits no stage events — the receiving cache accounts its side
    of a delivery (``notifier/delivered``) on its own instrumentation.
    """

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        self.stats = BusStats()
        self._receivers: dict[CacheId, Callable[[Invalidation], None]] = {}
        self._lost_documents: dict[object, int] = {}
        #: Sequenced channels, keyed by cache id.  Sequencing is opt-in
        #: (the recovery layer enables it); unsequenced caches see the
        #: exact pre-recovery delivery behaviour.
        self._channels: dict[CacheId, ChannelState] = {}
        self._notifier_names: dict[CacheId, NotifierNames] = {}

    def notifier_names(self, cache_id: CacheId) -> NotifierNames:
        """The minimum notifier set's names for *cache_id*, built once."""
        names = self._notifier_names.get(cache_id)
        if names is None:
            names = self._notifier_names[cache_id] = NotifierNames(cache_id)
        return names

    def register(
        self, cache_id: CacheId, sink: Callable[[Invalidation], None]
    ) -> None:
        """Register a cache's invalidation sink under its id."""
        self._receivers[cache_id] = sink

    def unregister(self, cache_id: CacheId) -> None:
        """Remove a cache (e.g. it shut down): deliveries to it drop,
        and its sequenced channel, if it had one, is forgotten."""
        self._receivers.pop(cache_id, None)
        self._channels.pop(cache_id, None)

    # -- sequenced channels (consistency recovery) ----------------------------

    def enable_sequencing(self, cache_id: CacheId) -> ChannelState:
        """Stamp every future delivery to *cache_id* with (epoch, seq).

        Idempotent: re-enabling returns the existing channel state (the
        sequence survives a cache restart — that is what lets the
        restarted cache detect what it missed while it was down).
        """
        channel = self._channels.get(cache_id)
        if channel is None:
            channel = self._channels[cache_id] = ChannelState()
        return channel

    def channel_checkpoint(self, cache_id: CacheId) -> tuple[int, int] | None:
        """The send-side (epoch, next sequence) for a sequenced channel.

        Piggybacked on lease renewals: a receiver whose expectation
        trails the returned high-water mark has missed deliveries even
        if no later delivery ever arrived to expose the gap inline.
        """
        channel = self._channels.get(cache_id)
        if channel is None:
            return None
        return channel.epoch, channel.next_sequence

    def bump_epoch(self, cache_id: CacheId) -> tuple[int, int]:
        """Start a fresh epoch after a resync; returns (epoch, next seq).

        The resync reconciled every entry against server state, so prior
        losses are water under the bridge; the sequence restarts at 1.
        """
        channel = self.enable_sequencing(cache_id)
        channel.epoch += 1
        channel.next_sequence = 1
        return channel.epoch, channel.next_sequence

    def deliver(self, cache_id: CacheId, invalidation: Invalidation) -> None:
        """Deliver one invalidation, charging the notifier network path."""
        channel = self._channels.get(cache_id)
        if channel is not None:
            invalidation.epoch = channel.epoch
            invalidation.sequence = channel.next_sequence
            channel.next_sequence += 1
        plan = self.ctx.faults
        if plan is not None:
            if plan.check_bus_delivery(str(cache_id)):
                # Partition blackout: the delivery dies on the floor.
                self._lose(invalidation)
                return
            action, delay_ms = plan.notifier_disposition(str(cache_id))
            if action == "drop":
                self._lose(invalidation)
                return
            if action == "delay":
                self.stats.delayed += 1
                self.stats.delay_ms_total += delay_ms
                self.ctx.clock.call_after(
                    delay_ms,
                    lambda: self._deliver_now(
                        cache_id, invalidation, charge=False
                    ),
                )
                return
        self._deliver_now(cache_id, invalidation, charge=True)

    def _deliver_now(
        self, cache_id: CacheId, invalidation: Invalidation, charge: bool
    ) -> None:
        """Hand one invalidation to its sink, optionally charging hops.

        Delayed deliveries run inside a clock callback; their network
        cost is accounted in the stats but neither re-charged to the
        clock nor checked for outages (the delay covered the transit).
        """
        sink = self._receivers.get(cache_id)
        if sink is None:
            self.stats.dropped += 1
            return
        ctx = self.ctx
        plan = ctx.faults if charge else None
        cost = 0.0
        for hop in ctx.topology.notifier_path():
            if plan is not None and plan.link_down(hop):
                # The notification died in transit on a downed link: it
                # is lost, exactly like a fault-plan drop.
                self._lose(invalidation)
                return
            hop_ms = ctx.latency.hop_cost_ms(hop, 0)
            if charge:
                ctx.clock.charge(hop_ms)
            cost += hop_ms
        self.stats.deliveries += 1
        self.stats.delivery_cost_ms += cost
        sink(invalidation)

    def _lose(self, invalidation: Invalidation) -> None:
        """One delivery died: account it, and remember its document for
        the verifier that later catches what it missed."""
        self.stats.lost += 1
        document_id = invalidation.document_id
        if document_id is not None:
            self._lost_documents[document_id] = (
                self._lost_documents.get(document_id, 0) + 1
            )

    def consume_lost(self, document_id: object) -> bool:
        """Report (and forget) one lost invalidation for *document_id*.

        The cache manager calls this when a verifier invalidates an
        entry: a pending lost notification for the same document means
        the verifier just caught what the dropped callback missed.
        """
        pending = self._lost_documents.get(document_id, 0)
        if pending <= 0:
            return False
        if pending == 1:
            del self._lost_documents[document_id]
        else:
            self._lost_documents[document_id] = pending - 1
        return True


class NotifierProperty(ActiveProperty):
    """A notifier: watches events, pushes invalidations to one cache.

    Parameters
    ----------
    bus, cache_id:
        Where invalidations are delivered.
    watch:
        The event types of interest.
    scope_user:
        ``None`` invalidates every user's entry for the document (the
        change is universal); a specific user invalidates only that
        user's personalized version, and is not told of that user's own
        writes — their cache handles those locally (§3: "opened for
        writing by another user").
    predicate:
        Optional semantic filter — "semantic callbacks are triggered only
        if some predicate is satisfied" — receiving the event; return
        ``False`` to suppress the notification.
    reason_map:
        Override the event→reason mapping.
    """

    #: Notifiers are cache infrastructure: their own attachment/removal
    #: must not trigger other notifiers.
    is_infrastructure = True
    execution_cost_ms = 0.05

    def __init__(
        self,
        bus: InvalidationBus,
        cache_id: CacheId,
        watch: set[EventType] | frozenset[EventType],
        scope_user: UserId | None = None,
        predicate: Callable[[Event], bool] | None = None,
        reason_map: dict[EventType, InvalidationReason] | None = None,
        name: str = "notifier",
    ) -> None:
        super().__init__(name)
        if not watch:
            raise NotifierError("notifier must watch at least one event type")
        self.bus = bus
        self.cache_id = cache_id
        self.interest = frozenset(watch)
        self.scope_user = scope_user
        self.predicate = predicate
        self.reason_map = (
            {**DEFAULT_REASON_MAP, **reason_map} if reason_map
            else DEFAULT_REASON_MAP
        )
        self.notifications_sent = 0
        self.events_filtered = 0

    def handle(self, event: Event) -> Any:
        if self._suppressed(event):
            self.events_filtered += 1
            return None
        guard = self.bus.ctx.containment
        if guard is not None:
            return guard.run_notifier(self, event, self._notify)
        return self._notify(event)

    def _notify(self, event: Event) -> Invalidation:
        """Build and deliver the invalidation (the unguarded body)."""
        reason = self.reason_map.get(
            event.type, InvalidationReason.EXTERNAL_CHANGED
        )
        invalidation = Invalidation(
            reason=reason,
            document_id=event.document_id,
            user_id=self.scope_user,
            at_ms=event.at_ms,
            origin="notifier",
        )
        self.notifications_sent += 1
        self.bus.deliver(self.cache_id, invalidation)
        return invalidation

    def _suppressed(self, event: Event) -> bool:
        # Never react to cache-infrastructure properties (avoids notifier
        # installation cascading into invalidation storms).
        if event.payload.get("infrastructure"):
            return True
        # Property additions, removals and modifications only matter when
        # the property "could modify the content" (§3) — or the vote or
        # the reader check an entry was admitted under: any property on
        # the read path.  Static labels don't invalidate.
        if event.type in _CHANGE_EVENTS:
            if not event.payload.get("on_read_path", False):
                return True
        # A scoped notifier leaves its own user's writes to their cache.
        if event.type in _WRITE_WATCH and self.scope_user is not None:
            if event.user_id == self.scope_user:
                return True
        if self.predicate is not None and not self.predicate(event):
            return True
        return False


def install_minimum_notifiers(
    reference: "DocumentReference",
    bus: InvalidationBus,
    cache_id: CacheId,
) -> list[NotifierProperty]:
    """Attach §3's minimum notifier set for one user's cached document.

    Mirrors the paper's worked example: "a notifier property is attached
    to the base document to invalidate the cache if the file is opened
    for writing by another user.  Another notifier at the base tracks any
    additions or deletions of active properties that could modify the
    content.  At [the user's] document reference, a third notifier is
    attached to watch for active property additions, deletions and for
    changes in [their personal properties]."

    Plus the in-band content-update watch the dual update model needs.
    Idempotent per (cache, user, document): already-installed notifiers
    are not duplicated.  Returns the notifiers newly attached.
    """
    base = reference.base
    owner = reference.owner
    names = bus.notifier_names(cache_id)
    installed: list[NotifierProperty] = []
    for holder, name, watch, scope_user in (
        # Other users' writes: the scope user's own are handled locally
        # by their cache.
        (base, names[owner], _WRITE_WATCH, owner),
        # Universal property changes affect everyone, personal ones
        # only this user.
        (base, names.base_properties, _PROPERTY_WATCH, None),
        (reference, names.ref_properties, _PROPERTY_WATCH, owner),
    ):
        if not holder.has_property(name):
            notifier = NotifierProperty(
                bus, cache_id, watch, scope_user=scope_user, name=name
            )
            holder.attach(notifier, acting_user=owner)
            installed.append(notifier)
    return installed
