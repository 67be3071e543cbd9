"""Tests for the event vocabulary, dispatcher and timer service."""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.events.dispatcher import EventDispatcher
from repro.events.timers import TimerService
from repro.events.types import Event, EventType
from repro.ids import DocumentId, PropertyId, UserId
from repro.errors import ClockError, UnknownEventError
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.replication import ReplicationProperty
from repro.providers.memory import MemoryProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.sim.clock import VirtualClock


def make_event(event_type=EventType.GET_INPUT_STREAM, **payload):
    return Event(
        type=event_type,
        document_id=DocumentId("d1"),
        user_id=UserId("u1"),
        payload=payload,
    )


class TestEventType:
    def test_stream_events_flagged(self):
        assert EventType.GET_INPUT_STREAM.is_stream_event
        assert EventType.GET_OUTPUT_STREAM.is_stream_event
        assert not EventType.TIMER.is_stream_event

    def test_forwarded_events_flagged(self):
        assert EventType.READ_FORWARDED.is_forwarded
        assert EventType.WRITE_FORWARDED.is_forwarded
        assert not EventType.GET_INPUT_STREAM.is_forwarded

    def test_describe_mentions_user_and_type(self):
        text = make_event().describe()
        assert "get-input-stream" in text
        assert "user:u1" in text

    def test_describe_system_event(self):
        event = Event(type=EventType.TIMER, document_id=DocumentId("d"))
        assert "<system>" in event.describe()


class TestDispatcher:
    def test_dispatch_invokes_registered_handler(self):
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.register(
            PropertyId("p1"), {EventType.GET_INPUT_STREAM}, seen.append
        )
        event = make_event()
        dispatcher.dispatch(event)
        assert seen == [event]

    def test_dispatch_only_matching_type(self):
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.register(PropertyId("p1"), {EventType.TIMER}, seen.append)
        dispatcher.dispatch(make_event())
        assert seen == []

    def test_handlers_run_in_registration_order(self):
        dispatcher = EventDispatcher()
        order = []
        for index in range(4):
            dispatcher.register(
                PropertyId(f"p{index}"),
                {EventType.GET_INPUT_STREAM},
                lambda _e, i=index: order.append(i),
            )
        dispatcher.dispatch(make_event())
        assert order == [0, 1, 2, 3]

    def test_dispatch_collects_return_values(self):
        dispatcher = EventDispatcher()
        dispatcher.register(
            PropertyId("a"), {EventType.GET_INPUT_STREAM}, lambda e: "x"
        )
        dispatcher.register(
            PropertyId("b"), {EventType.GET_INPUT_STREAM}, lambda e: "y"
        )
        assert dispatcher.dispatch(make_event()) == ["x", "y"]

    def test_cancelled_registration_is_skipped(self):
        dispatcher = EventDispatcher()
        seen = []
        registration = dispatcher.register(
            PropertyId("p"), {EventType.GET_INPUT_STREAM}, seen.append
        )
        registration.cancel()
        dispatcher.dispatch(make_event())
        assert seen == []

    def test_unregister_property_removes_all(self):
        dispatcher = EventDispatcher()
        dispatcher.register(PropertyId("p"), {EventType.TIMER}, lambda e: None)
        dispatcher.register(
            PropertyId("p"), {EventType.GET_INPUT_STREAM}, lambda e: None
        )
        removed = dispatcher.unregister_property(PropertyId("p"))
        assert removed == 2
        assert not dispatcher.has_listener(EventType.TIMER)

    def test_reorder_changes_dispatch_order(self):
        dispatcher = EventDispatcher()
        order = []
        for name in ("a", "b", "c"):
            dispatcher.register(
                PropertyId(name),
                {EventType.GET_INPUT_STREAM},
                lambda _e, n=name: order.append(n),
            )
        dispatcher.reorder([PropertyId("c"), PropertyId("a"), PropertyId("b")])
        dispatcher.dispatch(make_event())
        assert order == ["c", "a", "b"]

    def test_reorder_keeps_unlisted_properties_last(self):
        dispatcher = EventDispatcher()
        order = []
        for name in ("a", "infra"):
            dispatcher.register(
                PropertyId(name),
                {EventType.GET_INPUT_STREAM},
                lambda _e, n=name: order.append(n),
            )
        dispatcher.reorder([PropertyId("a")])
        dispatcher.dispatch(make_event())
        assert order == ["a", "infra"]

    def test_registered_properties_lists_in_order(self):
        dispatcher = EventDispatcher()
        dispatcher.register(PropertyId("a"), {EventType.TIMER}, lambda e: None)
        dispatcher.register(PropertyId("b"), {EventType.TIMER}, lambda e: None)
        assert dispatcher.registered_properties(EventType.TIMER) == [
            PropertyId("a"),
            PropertyId("b"),
        ]

    def test_handler_registered_during_dispatch_not_invoked_now(self):
        dispatcher = EventDispatcher()
        seen = []

        def register_more(event):
            dispatcher.register(
                PropertyId("late"), {EventType.GET_INPUT_STREAM}, seen.append
            )

        dispatcher.register(
            PropertyId("first"), {EventType.GET_INPUT_STREAM}, register_more
        )
        dispatcher.dispatch(make_event())
        assert seen == []
        dispatcher.dispatch(make_event())
        assert len(seen) == 1

    def test_handler_cancelling_a_later_registration_stops_it_now(self):
        # The snapshot fixes who *may* run; liveness is read per handler.
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.register(
            PropertyId("first"), {EventType.GET_INPUT_STREAM},
            lambda event: later.cancel(),
        )
        later = dispatcher.register(
            PropertyId("later"), {EventType.GET_INPUT_STREAM}, seen.append
        )
        assert dispatcher.dispatch(make_event()) == [None]
        assert seen == []

    def test_property_detaching_a_later_one_stops_it_now(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        base = kernel.create_document(
            owner, MemoryProvider(kernel.ctx, b"bytes"), "doc"
        )

        class Watcher(ActiveProperty):
            def events_of_interest(self):
                return {EventType.TIMER}

        class Detacher(Watcher):
            def handle(self, event):
                base.detach(later)

        base.attach(Detacher("detacher"))
        later = base.attach(Watcher("later"))
        base.dispatcher.dispatch(base.make_event(EventType.TIMER))
        assert later.dispatch_count == 0
        assert not later.is_attached

    def test_a_non_event_type_is_unknown(self):
        dispatcher = EventDispatcher()
        with pytest.raises(UnknownEventError):
            dispatcher.register(
                PropertyId("p"), {EventType.TIMER, "timer"}, lambda e: None
            )
        # Validated before anything is listed.
        assert not dispatcher.has_listener(EventType.TIMER)

    def test_a_two_type_registration_is_one_object(self):
        dispatcher = EventDispatcher()
        seen = []
        registration = dispatcher.register(
            PropertyId("p"),
            {EventType.TIMER, EventType.GET_INPUT_STREAM},
            seen.append,
        )
        assert registration.event_types == {
            EventType.TIMER, EventType.GET_INPUT_STREAM
        }
        for event_type in registration.event_types:
            listed = dispatcher._registrations[event_type]
            assert type(listed) is tuple and listed == (registration,)
        dispatcher.dispatch(make_event(EventType.TIMER))
        dispatcher.dispatch(make_event())
        assert len(seen) == 2
        registration.cancel()
        dispatcher.dispatch(make_event(EventType.TIMER))
        dispatcher.dispatch(make_event())
        assert len(seen) == 2
        assert not dispatcher.has_listener(EventType.TIMER)
        assert not dispatcher.has_listener(EventType.GET_INPUT_STREAM)
        assert dispatcher.unregister_property(PropertyId("p")) == 1

    def test_an_unwatched_type_creates_no_list(self):
        dispatcher = EventDispatcher()
        assert dispatcher._registrations == {}
        assert dispatcher.dispatch(make_event()) == []
        assert not dispatcher.has_listener(EventType.TIMER)
        assert dispatcher.registered_properties(EventType.TIMER) == []
        dispatcher.reorder([PropertyId("p")])
        assert dispatcher._registrations == {}
        dispatcher.register(PropertyId("p"), {EventType.TIMER}, lambda e: None)
        dispatcher.dispatch(make_event())
        assert list(dispatcher._registrations) == [EventType.TIMER]
        dispatcher.unregister_property(PropertyId("p"))
        assert dispatcher._registrations == {}


# -- the per-type dispatcher, as the oracle ----------------------------------
#
# A dict of one list per ``EventType`` built up front, and one
# registration per (property, event type).  The machine below drives it
# and ``EventDispatcher`` with the same operations: a registration for a
# set of types must behave as one per-type registration per member.

OracleHandler = Callable[[Event], Any]


@dataclass(slots=True)
class OracleRegistration:
    """One property's interest in one event type."""

    property_id: PropertyId
    event_type: EventType
    handler: OracleHandler
    active: bool = True

    def cancel(self) -> None:
        """Stop this registration from receiving further events."""
        self.active = False


class PerTypeDispatcher:
    """Ordered event registration table for one attachment point.

    Registrations for each event type are kept in a list whose order
    follows property attachment order; :meth:`reorder` re-sorts every list
    when the owning document's property chain is permuted.
    """

    def __init__(self) -> None:
        self._registrations: dict[EventType, list[OracleRegistration]] = {
            event_type: [] for event_type in EventType
        }

    def register(
        self,
        property_id: PropertyId,
        event_type: EventType,
        handler: OracleHandler,
    ) -> OracleRegistration:
        """Register *handler* for *event_type* on behalf of a property."""
        registrations = self._registrations.get(event_type)
        if registrations is None:
            raise UnknownEventError(event_type)
        registration = OracleRegistration(property_id, event_type, handler)
        registrations.append(registration)
        return registration

    def unregister_property(self, property_id: PropertyId) -> int:
        """Drop every registration owned by *property_id*.

        Returns the number of registrations removed.  Called when a
        property is detached from its document.
        """
        removed = 0
        for event_type, registrations in self._registrations.items():
            kept = [r for r in registrations if r.property_id != property_id]
            removed += len(registrations) - len(kept)
            self._registrations[event_type] = kept
        return removed

    def registered_properties(self, event_type: EventType) -> list[PropertyId]:
        """Property ids with live registrations for *event_type*, in order."""
        return [
            r.property_id
            for r in self._registrations[event_type]
            if r.active
        ]

    def has_listener(self, event_type: EventType) -> bool:
        """True if any live registration exists for *event_type*."""
        return any(r.active for r in self._registrations[event_type])

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
            self._registrations[event_type] = sorted(
                registrations,
                key=lambda r: rank.get(r.property_id, fallback),
            )

    def dispatch(self, event: Event) -> list[Any]:
        """Invoke every live handler registered for the event's type.

        Handlers run in registration (chain) order; each handler's return
        value is collected.  Handlers are invoked against a snapshot of the
        registration list, so a registration added by a handler first runs
        on the next dispatch.  Liveness is checked per handler, though: a
        handler that cancels a later registration — as detaching its
        property does — stops it within this same dispatch.
        """
        registrations = self._registrations[event.type]
        if not registrations:
            return []
        results: list[Any] = []
        for registration in list(registrations):
            if not registration.active:
                continue
            results.append(registration.handler(event))
        return results


class _Side:
    """One dispatcher driven by the machine, with the handler calls it
    made.  A *label* names one registration of a set of types: one
    registration on the set-valued side, one per type on the oracle's."""

    def __init__(self, dispatcher, per_type: bool) -> None:
        self.dispatcher = dispatcher
        self.per_type = per_type
        self.calls: list[tuple[str, EventType]] = []
        self.by_label: dict[str, list] = {}
        self.owner: dict[str, PropertyId] = {}
        self.listed: set[str] = set()

    def register(self, label, property_id, event_types, action) -> None:
        def handler(event: Event) -> str:
            self.calls.append((label, event.type))
            if action is not None:
                action(self)
            return label

        if self.per_type:
            self.by_label[label] = [
                self.dispatcher.register(property_id, event_type, handler)
                for event_type in event_types
            ]
        else:
            self.by_label[label] = [
                self.dispatcher.register(property_id, event_types, handler)
            ]
        self.owner[label] = property_id
        self.listed.add(label)

    def cancel(self, label: str) -> None:
        for registration in self.by_label[label]:
            registration.cancel()

    def unregister(self, property_id: PropertyId) -> int:
        """Labels dropped: what the set-valued side returns, and what the
        oracle's per-type count comes to once grouped."""
        dropped = {l for l in self.listed if self.owner[l] == property_id}
        self.listed -= dropped
        removed = self.dispatcher.unregister_property(property_id)
        if not self.per_type:
            return removed
        assert removed == sum(len(self.by_label[l]) for l in dropped)
        return len(dropped)


_PROPERTY_IDS = [PropertyId(name) for name in "abcd"]
_TYPES = st.frozensets(st.sampled_from(list(EventType)), min_size=1, max_size=4)


class DispatcherOracleMachine(RuleBasedStateMachine):
    """Set-valued registrations behave exactly as one per-type
    registration each: same handler calls, in the same order, with the
    same return values, under mid-dispatch registration and cancels."""

    def __init__(self) -> None:
        super().__init__()
        self.sides = (
            _Side(EventDispatcher(), per_type=False),
            _Side(PerTypeDispatcher(), per_type=True),
        )
        self.labels: list[str] = []

    def _label(self) -> str:
        label = f"r{len(self.labels)}"
        self.labels.append(label)
        return label

    @rule(
        property_id=st.sampled_from(_PROPERTY_IDS),
        event_types=_TYPES,
        action=st.sampled_from(["none", "register", "cancel"]),
        data=st.data(),
    )
    def register(self, property_id, event_types, action, data):
        label = self._label()
        if action == "register":
            # First call registers one more label, mid-dispatch.
            late = (
                data.draw(st.sampled_from(_PROPERTY_IDS)), data.draw(_TYPES)
            )
            late_label = f"{label}-late"
            fired: set[_Side] = set()

            def effect(side):
                if side not in fired:
                    fired.add(side)
                    side.register(late_label, *late, None)
        elif action == "cancel":
            target = data.draw(st.sampled_from(self.labels))

            def effect(side):
                side.cancel(target)
        else:
            effect = None
        for side in self.sides:
            side.register(label, property_id, event_types, effect)

    @precondition(lambda self: self.labels)
    @rule(data=st.data())
    def cancel(self, data):
        label = data.draw(st.sampled_from(self.labels))
        for side in self.sides:
            side.cancel(label)

    @rule(property_id=st.sampled_from(_PROPERTY_IDS))
    def unregister(self, property_id):
        removed = [side.unregister(property_id) for side in self.sides]
        assert removed[0] == removed[1]

    @rule(order=st.lists(st.sampled_from(_PROPERTY_IDS), unique=True))
    def reorder(self, order):
        for side in self.sides:
            side.dispatcher.reorder(order)

    @rule(event_type=st.sampled_from(list(EventType)))
    def dispatch(self, event_type):
        event = make_event(event_type)
        results = [side.dispatcher.dispatch(event) for side in self.sides]
        assert results[0] == results[1]
        assert self.sides[0].calls == self.sides[1].calls

    @invariant()
    def same_listeners(self):
        new, oracle = (side.dispatcher for side in self.sides)
        for event_type in EventType:
            assert new.registered_properties(
                event_type
            ) == oracle.registered_properties(event_type)
            assert new.has_listener(event_type) == oracle.has_listener(
                event_type
            )


DispatcherOracleMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestDispatcherOracle = DispatcherOracleMachine.TestCase


class TestTimerService:
    def test_once_fires_once(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        fired = []
        timers.subscribe_once(
            PropertyId("p"), DocumentId("d"), 100.0, fired.append
        )
        clock.advance(250.0)
        assert len(fired) == 1
        assert fired[0].type is EventType.TIMER
        assert fired[0].at_ms == 100.0

    def test_periodic_fires_repeatedly(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        fired = []
        timers.subscribe_periodic(
            PropertyId("p"), DocumentId("d"), 50.0, fired.append
        )
        clock.advance(175.0)
        assert [event.at_ms for event in fired] == [50.0, 100.0, 150.0]

    def test_cancel_stops_periodic(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        fired = []
        subscription = timers.subscribe_periodic(
            PropertyId("p"), DocumentId("d"), 50.0, fired.append
        )
        clock.advance(60.0)
        subscription.cancel()
        clock.advance(500.0)
        assert len(fired) == 1
        assert subscription.fires == 1

    def test_live_subscriptions_excludes_cancelled(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        keep = timers.subscribe_periodic(
            PropertyId("p"), DocumentId("d"), 10.0, lambda e: None
        )
        drop = timers.subscribe_periodic(
            PropertyId("q"), DocumentId("d"), 10.0, lambda e: None
        )
        drop.cancel()
        assert timers.live_subscriptions() == [keep]

    def test_nonpositive_period_raises(self):
        timers = TimerService(VirtualClock())
        with pytest.raises(ClockError):
            timers.subscribe_periodic(
                PropertyId("p"), DocumentId("d"), 0.0, lambda e: None
            )

    def test_detached_properties_are_not_kept_alive(self):
        kernel = PlacelessKernel()
        reference = kernel.import_document(
            kernel.create_user("owner"), MemoryProvider(kernel.ctx, b"x"), "doc"
        )
        replica_fs = SimulatedFileSystem(kernel.ctx.clock)
        detached = []
        for _ in range(1_000):
            replication = ReplicationProperty(
                kernel.timers, replica_fs, "/r", period_ms=100.0
            )
            reference.attach(replication)
            reference.detach(replication)
            detached.append(weakref.ref(replication))
        del replication
        kernel.ctx.clock.advance(150.0)
        gc.collect()
        assert kernel.timers.live_subscriptions() == []
        assert sum(ref() is not None for ref in detached) == 0

    def test_a_fired_one_shot_is_forgotten(self):
        clock = VirtualClock()
        timers = TimerService(clock)

        class Target:
            def deliver(self, event):
                self.fired = True

        target = Target()
        alive = weakref.ref(target)
        subscription = timers.subscribe_once(
            PropertyId("p"), DocumentId("d"), 10.0, target.deliver
        )
        assert timers.live_subscriptions() == [subscription]
        clock.advance(20.0)
        assert target.fired and subscription.fires == 1
        assert timers.live_subscriptions() == []
        del target, subscription
        gc.collect()
        assert alive() is None

    def test_timer_event_carries_property_id(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        fired = []
        timers.subscribe_once(PropertyId("pp"), DocumentId("d"), 1.0, fired.append)
        clock.advance(2.0)
        assert fired[0].payload["property_id"] == PropertyId("pp")
