"""Tests for the event vocabulary, holder dispatch and timer service."""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.events.timers import TimerService
from repro.events.types import Event, EventType
from repro.ids import DocumentId, PropertyId, UserId
from repro.errors import ClockError, UnknownEventError
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.recorder import EventRecorder
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


def make_holder():
    kernel = PlacelessKernel()
    return kernel.create_document(
        kernel.create_user("owner"), MemoryProvider(kernel.ctx, b"bytes"), "doc"
    )


class Probe(EventRecorder):
    """A recorder that also logs ``(label, type)`` into a shared list,
    returns its label, and runs *action* (once) on the first event whose
    payload carries ``probe``."""

    def __init__(self, label, watch, log, action=None):
        super().__init__(set(watch), name=label)
        self.label, self.log, self.action = label, log, action

    def handle(self, event):
        super().handle(event)
        self.log.append((self.label, event.type))
        if self.action is not None and event.payload.get("probe"):
            action, self.action = self.action, None
            action()
        return self.label


class TestDispatcher:
    """A holder's dispatch: its attached properties are its registrations."""

    def test_dispatch_invokes_registered_handler(self):
        holder = make_holder()
        recorder = holder.attach(EventRecorder({EventType.GET_INPUT_STREAM}))
        event = make_event()
        holder.dispatch(event)
        assert recorder.events_seen() == [event]

    def test_dispatch_only_matching_type(self):
        holder = make_holder()
        recorder = holder.attach(EventRecorder({EventType.TIMER}))
        holder.dispatch(make_event())
        assert recorder.events_seen() == []

    def test_handlers_run_in_registration_order(self):
        holder, log = make_holder(), []
        for index in range(4):
            holder.attach(Probe(f"p{index}", {EventType.GET_INPUT_STREAM}, log))
        holder.dispatch(make_event())
        assert [label for label, _ in log] == ["p0", "p1", "p2", "p3"]

    def test_dispatch_collects_return_values(self):
        holder, log = make_holder(), []
        holder.attach(Probe("x", {EventType.GET_INPUT_STREAM}, log))
        holder.attach(Probe("y", {EventType.GET_INPUT_STREAM}, log))
        assert holder.dispatch(make_event()) == ["x", "y"]

    def test_cancelled_registration_is_skipped(self):
        holder = make_holder()
        recorder = holder.attach(EventRecorder({EventType.GET_INPUT_STREAM}))
        holder.detach(recorder)
        holder.dispatch(make_event())
        assert recorder.events_seen() == []

    def test_unregister_property_removes_all(self):
        holder, log = make_holder(), []
        probe = holder.attach(
            Probe("p", {EventType.TIMER, EventType.GET_INPUT_STREAM}, log)
        )
        holder.detach(probe)
        holder.dispatch(make_event(EventType.TIMER))
        holder.dispatch(make_event())
        assert log == []
        assert not holder.has_listener(EventType.TIMER)
        assert not holder.has_listener(EventType.GET_INPUT_STREAM)

    def test_reorder_changes_dispatch_order(self):
        holder, log = make_holder(), []
        probes = {
            name: holder.attach(Probe(name, {EventType.GET_INPUT_STREAM}, log))
            for name in "abc"
        }
        assert holder.dispatch(make_event()) == ["a", "b", "c"]
        holder.reorder([probes[name].property_id for name in "cab"])
        assert holder.dispatch(make_event()) == ["c", "a", "b"]

    def test_registered_properties_lists_in_order(self):
        holder = make_holder()
        a = holder.attach(EventRecorder({EventType.TIMER}, name="a"))
        b = holder.attach(EventRecorder({EventType.TIMER}, name="b"))
        holder.dispatch(make_event(EventType.TIMER))
        assert holder._chains[EventType.TIMER] == (a, b)

    def test_handler_registered_during_dispatch_not_invoked_now(self):
        holder, log = make_holder(), []

        def attach_more():
            holder.attach(Probe("late", {EventType.GET_INPUT_STREAM}, log))

        holder.attach(
            Probe("first", {EventType.GET_INPUT_STREAM}, log, attach_more)
        )
        assert holder.dispatch(make_event(probe=True)) == ["first"]
        assert holder.dispatch(make_event()) == ["first", "late"]

    def test_handler_cancelling_a_later_registration_stops_it_now(self):
        # The snapshot fixes who *may* run; attachment is read per
        # property.
        holder, log = make_holder(), []
        holder.attach(Probe(
            "first", {EventType.GET_INPUT_STREAM}, log,
            lambda: holder.detach(later),
        ))
        later = holder.attach(Probe("later", {EventType.GET_INPUT_STREAM}, log))
        assert holder.dispatch(make_event(probe=True)) == ["first"]
        assert log == [("first", EventType.GET_INPUT_STREAM)]

    def test_property_detaching_a_later_one_stops_it_now(self):
        base = make_holder()

        class Watcher(ActiveProperty):
            def events_of_interest(self):
                return {EventType.TIMER}

        class Detacher(Watcher):
            def handle(self, event):
                base.detach(later)

        base.attach(Detacher("detacher"))
        later = base.attach(Watcher("later"))
        base.dispatch(base.make_event(EventType.TIMER))
        assert later.dispatch_count == 0
        assert not later.is_attached

    def test_a_non_event_type_is_unknown(self):
        holder = make_holder()
        with pytest.raises(UnknownEventError):
            holder.attach(EventRecorder({EventType.TIMER, "timer"}))
        # Checked before anything binds.
        assert not holder.has_listener(EventType.TIMER)
        assert len(holder) == 0

    def test_a_two_type_registration_is_one_object(self):
        # The property keeps its interest set as it is; the holder lists
        # it in a tuple per dispatched type, and forgets it on detach.
        holder = make_holder()
        recorder = EventRecorder({EventType.TIMER, EventType.GET_INPUT_STREAM})
        interest = recorder.events_of_interest()
        holder.attach(recorder)
        assert recorder._watching is interest
        holder.dispatch(make_event(EventType.TIMER))
        holder.dispatch(make_event())
        assert holder._chains == {
            EventType.TIMER: (recorder,),
            EventType.GET_INPUT_STREAM: (recorder,),
        }
        assert len(recorder.records) == 2
        holder.detach(recorder)
        assert recorder._watching == frozenset()
        assert holder._chains == {}

    def test_an_unwatched_type_creates_no_list(self):
        holder = make_holder()
        assert holder.dispatch(make_event()) == []
        holder.attach(EventRecorder({EventType.TIMER}))
        assert holder.dispatch(make_event()) == []
        assert holder.read_chain() == holder.write_chain() == ()
        assert holder._chains == {}

    def test_the_listener_mask_is_exact_after_a_detach(self):
        holder = make_holder()
        both = holder.attach(
            EventRecorder({EventType.TIMER, EventType.SET_PROPERTY})
        )
        timer = holder.attach(EventRecorder({EventType.TIMER}, name="t"))
        holder.detach(both)
        assert holder.has_listener(EventType.TIMER)
        assert not holder.has_listener(EventType.SET_PROPERTY)
        holder.detach(timer)
        assert holder._watched == 0


# -- the dispatcher the chain replaced, as the oracle -----------------------
#
# ``EventDispatcher`` and ``Registration`` below are the per-holder
# registration table that ``PropertyHolder`` kept beside its chain until
# the chain became the event table, verbatim.  ``OracleHolder`` drives
# it through attach / detach / reorder exactly as the holder did then.

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


class OracleHolder:
    """Attach, detach and reorder over the oracle dispatcher, as the
    holder ran them: SET_PROPERTY goes to those already registered, then
    the newcomer registers; a detach cancels and unregisters, then raises
    REMOVE_PROPERTY; a reorder re-sorts every type's tuple, then raises
    REORDER_PROPERTIES."""

    def __init__(self) -> None:
        self.dispatcher = EventDispatcher()
        self.properties: list[ActiveProperty] = []
        self.registrations: dict[int, Registration] = {}

    def make_event(self, event_type, payload=None) -> Event:
        return make_event(event_type, **(payload or {}))

    def attach(self, prop) -> None:
        interest = EventDispatcher.checked(prop.events_of_interest())
        prop.property_id = PropertyId(prop.name)
        self.properties.append(prop)
        if self.dispatcher.registrations(EventType.SET_PROPERTY):
            self.dispatcher.dispatch(self.make_event(EventType.SET_PROPERTY))
        self.registrations[id(prop)] = self.dispatcher.register(
            prop.property_id, interest, prop
        )

    def detach(self, prop) -> None:
        self.properties.remove(prop)
        self.registrations.pop(id(prop)).cancel()
        self.dispatcher.unregister_property(prop.property_id)
        self.dispatcher.dispatch(self.make_event(EventType.REMOVE_PROPERTY))

    def reorder(self, order: list[PropertyId]) -> None:
        by_id = {p.property_id: p for p in self.properties}
        self.properties = [by_id[pid] for pid in order]
        self.dispatcher.reorder(order)
        self.dispatcher.dispatch(self.make_event(EventType.REORDER_PROPERTIES))

    def dispatch(self, event: Event) -> list[Any]:
        return self.dispatcher.dispatch(event)


class _Side:
    """One holder driven by the machine, with the calls its probes made.
    A *label* names one attached probe on each side."""

    def __init__(self, holder) -> None:
        self.holder = holder
        self.calls: list[tuple[str, EventType]] = []
        self.probes: dict[str, Probe] = {}

    def attached(self) -> list[str]:
        return [p.label for p in self.holder.properties]

    def attach(self, label, event_types, effect) -> None:
        action = None if effect is None else (lambda: effect(self))
        self.probes[label] = Probe(label, event_types, self.calls, action)
        self.holder.attach(self.probes[label])

    def detach(self, label) -> None:
        if label in self.attached():
            self.holder.detach(self.probes[label])

    def reorder(self, labels) -> None:
        self.holder.reorder([self.probes[l].property_id for l in labels])

    def dispatch(self, event_type) -> list[Any]:
        return self.holder.dispatch(
            self.holder.make_event(event_type, payload={"probe": True})
        )


_TYPES = st.frozensets(st.sampled_from(list(EventType)), min_size=1, max_size=4)


class DispatcherOracleMachine(RuleBasedStateMachine):
    """The holder dispatching from its chain makes the same calls as the
    registration table it replaced, in the same order, with the same
    return values: under attach, detach and reorder, and under handlers
    that attach or detach mid-dispatch."""

    def __init__(self) -> None:
        super().__init__()
        self.sides = (_Side(make_holder()), _Side(OracleHolder()))
        self.labels: list[str] = []

    def _label(self) -> str:
        label = f"r{len(self.labels)}"
        self.labels.append(label)
        return label

    @rule(
        event_types=_TYPES,
        action=st.sampled_from(["none", "attach", "detach"]),
        data=st.data(),
    )
    def attach(self, event_types, action, data):
        label = self._label()
        if action == "attach":
            # Attaches one more probe, mid-dispatch.
            late, late_types = self._label(), data.draw(_TYPES)

            def effect(side):
                side.attach(late, late_types, None)
        elif action == "detach":
            target = data.draw(st.sampled_from(self.labels))

            def effect(side):
                side.detach(target)
        else:
            effect = None
        for side in self.sides:
            side.attach(label, event_types, effect)
        self._same_calls()

    @precondition(lambda self: self.labels)
    @rule(data=st.data())
    def detach(self, data):
        label = data.draw(st.sampled_from(self.labels))
        for side in self.sides:
            side.detach(label)
        self._same_calls()

    @rule(data=st.data())
    def reorder(self, data):
        order = data.draw(st.permutations(self.sides[0].attached()))
        for side in self.sides:
            side.reorder(order)
        self._same_calls()

    @rule(event_type=st.sampled_from(list(EventType)))
    def dispatch(self, event_type):
        results = [side.dispatch(event_type) for side in self.sides]
        assert results[0] == results[1]
        self._same_calls()

    def _same_calls(self) -> None:
        assert self.sides[0].calls == self.sides[1].calls

    @invariant()
    def same_listeners(self):
        holder, oracle = (side.holder for side in self.sides)
        assert self.sides[0].attached() == self.sides[1].attached()
        for event_type in EventType:
            listening = [
                pid.value
                for pid in oracle.dispatcher.registered_properties(event_type)
            ]
            assert holder.has_listener(event_type) == bool(listening)
            # A kept tuple is never stale.
            if event_type in holder._chains:
                assert [
                    p.label for p in holder._chains[event_type]
                ] == listening


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
