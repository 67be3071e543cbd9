"""Tests for the event vocabulary, dispatcher and timer service."""

from __future__ import annotations

import pytest

from repro.events.dispatcher import EventDispatcher
from repro.events.timers import TimerService
from repro.events.types import Event, EventType
from repro.ids import DocumentId, PropertyId, UserId
from repro.errors import ClockError
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.providers.memory import MemoryProvider
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
            PropertyId("p1"), EventType.GET_INPUT_STREAM, seen.append
        )
        event = make_event()
        dispatcher.dispatch(event)
        assert seen == [event]

    def test_dispatch_only_matching_type(self):
        dispatcher = EventDispatcher()
        seen = []
        dispatcher.register(PropertyId("p1"), EventType.TIMER, seen.append)
        dispatcher.dispatch(make_event())
        assert seen == []

    def test_handlers_run_in_registration_order(self):
        dispatcher = EventDispatcher()
        order = []
        for index in range(4):
            dispatcher.register(
                PropertyId(f"p{index}"),
                EventType.GET_INPUT_STREAM,
                lambda _e, i=index: order.append(i),
            )
        dispatcher.dispatch(make_event())
        assert order == [0, 1, 2, 3]

    def test_dispatch_collects_return_values(self):
        dispatcher = EventDispatcher()
        dispatcher.register(
            PropertyId("a"), EventType.GET_INPUT_STREAM, lambda e: "x"
        )
        dispatcher.register(
            PropertyId("b"), EventType.GET_INPUT_STREAM, lambda e: "y"
        )
        assert dispatcher.dispatch(make_event()) == ["x", "y"]

    def test_cancelled_registration_is_skipped(self):
        dispatcher = EventDispatcher()
        seen = []
        registration = dispatcher.register(
            PropertyId("p"), EventType.GET_INPUT_STREAM, seen.append
        )
        registration.cancel()
        dispatcher.dispatch(make_event())
        assert seen == []

    def test_unregister_property_removes_all(self):
        dispatcher = EventDispatcher()
        dispatcher.register(PropertyId("p"), EventType.TIMER, lambda e: None)
        dispatcher.register(
            PropertyId("p"), EventType.GET_INPUT_STREAM, lambda e: None
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
                EventType.GET_INPUT_STREAM,
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
                EventType.GET_INPUT_STREAM,
                lambda _e, n=name: order.append(n),
            )
        dispatcher.reorder([PropertyId("a")])
        dispatcher.dispatch(make_event())
        assert order == ["a", "infra"]

    def test_registered_properties_lists_in_order(self):
        dispatcher = EventDispatcher()
        dispatcher.register(PropertyId("a"), EventType.TIMER, lambda e: None)
        dispatcher.register(PropertyId("b"), EventType.TIMER, lambda e: None)
        assert dispatcher.registered_properties(EventType.TIMER) == [
            PropertyId("a"),
            PropertyId("b"),
        ]

    def test_handler_registered_during_dispatch_not_invoked_now(self):
        dispatcher = EventDispatcher()
        seen = []

        def register_more(event):
            dispatcher.register(
                PropertyId("late"), EventType.GET_INPUT_STREAM, seen.append
            )

        dispatcher.register(
            PropertyId("first"), EventType.GET_INPUT_STREAM, register_more
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
            PropertyId("first"), EventType.GET_INPUT_STREAM,
            lambda event: later.cancel(),
        )
        later = dispatcher.register(
            PropertyId("later"), EventType.GET_INPUT_STREAM, seen.append
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

    def test_timer_event_carries_property_id(self):
        clock = VirtualClock()
        timers = TimerService(clock)
        fired = []
        timers.subscribe_once(PropertyId("pp"), DocumentId("d"), 1.0, fired.append)
        clock.advance(2.0)
        assert fired[0].payload["property_id"] == PropertyId("pp")
