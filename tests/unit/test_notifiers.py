"""Tests for the invalidation bus, notifier properties and the minimum set."""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.notifiers import (
    BusStats,
    InvalidationBus,
    NotifierProperty,
    install_minimum_notifiers,
)
from repro.contract.consistency import Invalidation, InvalidationReason
from repro.errors import NotifierError
from repro.events.types import EventType
from repro.faults.plan import FaultPlan, OutageWindow
from repro.placeless.properties import StaticProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.recorder import EventRecorder
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider


@pytest.fixture
def world(kernel, user, other_user):
    provider = MemoryProvider(kernel.ctx, b"shared doc")
    base = kernel.create_document(user, provider, "doc")
    mine = kernel.space(user).add_reference(base)
    theirs = kernel.space(other_user).add_reference(base)
    bus = InvalidationBus(kernel.ctx)
    return kernel, base, mine, theirs, bus


def collect(bus, kernel, name="sink"):
    cache_id = kernel.ctx.ids.cache(name)
    received = []
    bus.register(cache_id, received.append)
    return cache_id, received


class TestInvalidationBus:
    def test_delivers_to_registered_sink(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        invalidation = Invalidation(
            InvalidationReason.EXPLICIT, base.document_id
        )
        bus.deliver(cache_id, invalidation)
        assert received == [invalidation]
        assert bus.stats.deliveries == 1
        assert bus.stats.delivery_cost_ms > 0

    def test_unknown_sink_drops(self, world):
        kernel, base, _, _, bus = world
        bus.deliver(
            kernel.ctx.ids.cache("ghost"),
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert bus.stats.dropped == 1
        assert bus.stats.deliveries == 0

    def test_unregister_stops_delivery(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        bus.unregister(cache_id)
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert received == []

    def test_delivery_charges_clock(self, world):
        kernel, base, _, _, bus = world
        cache_id, _ = collect(bus, kernel)
        before = kernel.ctx.clock.now_ms
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert kernel.ctx.clock.now_ms > before


def _lost_by_partition(clock):
    return FaultPlan(clock, bus_outages=(OutageWindow(0.0, 1e9),))


def _lost_by_drop(clock):
    return FaultPlan(clock, notifier_loss_probability=1.0)


def _lost_on_a_downed_link(clock):
    return FaultPlan(clock, link_outages=(OutageWindow(0.0, 1e9),))


class TestBusStats:
    """The bus counts every delivery attempt where it is decided."""

    def test_deliveries_and_their_cost_sum(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        costs = []
        for _ in range(3):
            before = kernel.ctx.clock.now_ms
            bus.deliver(
                cache_id,
                Invalidation(InvalidationReason.EXPLICIT, base.document_id),
            )
            costs.append(kernel.ctx.clock.now_ms - before)
        assert len(received) == 3
        assert bus.stats == BusStats(
            deliveries=3, delivery_cost_ms=pytest.approx(sum(costs))
        )
        assert bus.stats.delivery_cost_ms > 0

    def test_no_sink_is_dropped_not_lost(self, world):
        kernel, base, _, _, bus = world
        ghost = kernel.ctx.ids.cache("ghost")
        for _ in range(2):
            bus.deliver(
                ghost,
                Invalidation(InvalidationReason.EXPLICIT, base.document_id),
            )
        assert bus.stats == BusStats(dropped=2)
        assert not bus.consume_lost(base.document_id)

    @pytest.mark.parametrize(
        "plan",
        [_lost_by_drop, _lost_by_partition, _lost_on_a_downed_link],
        ids=["fault-plan-drop", "partition", "offline-link"],
    )
    def test_losses_are_counted_and_remembered(self, world, plan):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        kernel.ctx.faults = plan(kernel.ctx.clock)
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert received == []
        assert bus.stats == BusStats(lost=1)
        assert bus.consume_lost(base.document_id)
        assert not bus.consume_lost(base.document_id)

    def test_delays_count_now_and_deliver_later_uncharged(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock,
            notifier_delay_probability=1.0,
            notifier_delay_ms=50.0,
        )
        for _ in range(2):
            bus.deliver(
                cache_id,
                Invalidation(InvalidationReason.EXPLICIT, base.document_id),
            )
        assert received == []
        assert bus.stats == BusStats(delayed=2, delay_ms_total=100.0)
        kernel.ctx.clock.advance(50.0)
        assert len(received) == 2
        assert bus.stats.deliveries == 2
        assert bus.stats.delivery_cost_ms > 0
        assert (bus.stats.delayed, bus.stats.delay_ms_total) == (2, 100.0)

    def test_a_delayed_delivery_costs_its_path_but_charges_nothing(
        self, world
    ):
        # The delay covered the transit: the delivery adds its path's
        # cost to the stats, and the clock moves by the delay alone.
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        ctx = kernel.ctx
        ctx.faults = FaultPlan(
            ctx.clock, notifier_delay_probability=1.0, notifier_delay_ms=50.0
        )
        path_cost = 0.0
        for hop in ctx.topology.notifier_path():
            path_cost += ctx.latency.hop_cost_ms(hop, 0)
        start = ctx.clock.now_ms
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert ctx.clock.now_ms == start
        ctx.clock.advance(50.0)
        assert len(received) == 1
        assert ctx.clock.now_ms == start + 50.0
        assert bus.stats.delivery_cost_ms == 0.0 + path_cost
        assert ctx.clock.total_charged_ms == 0.0

    def test_a_downed_second_hop_charges_the_first_and_loses_it(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        ctx = kernel.ctx
        first, second = ctx.topology.notifier_path()
        assert second == "app-to-reference"
        ctx.faults = FaultPlan(
            ctx.clock, link_outages=(OutageWindow(0.0, 1e9, second),)
        )
        start = ctx.clock.now_ms
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert received == []
        assert bus.stats == BusStats(lost=1)
        assert ctx.clock.now_ms == start + ctx.latency.hop_cost_ms(first, 0)
        assert bus.consume_lost(base.document_id)

    @pytest.mark.parametrize(
        "plan",
        [_lost_by_drop, _lost_by_partition, _lost_on_a_downed_link],
        ids=["fault-plan-drop", "partition", "offline-link"],
    )
    def test_a_lost_delivery_uses_up_its_sequence_number(self, world, plan):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        bus.enable_sequencing(cache_id)
        kernel.ctx.faults = plan(kernel.ctx.clock)
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        kernel.ctx.faults = None
        bus.deliver(
            cache_id,
            Invalidation(InvalidationReason.EXPLICIT, base.document_id),
        )
        assert [(i.epoch, i.sequence) for i in received] == [(1, 2)]
        assert bus.channel_checkpoint(cache_id) == (1, 3)
        assert (bus.stats.lost, bus.stats.deliveries) == (1, 1)


class TestNotifierProperty:
    def test_fires_on_watched_event(self, world):
        kernel, base, mine, _, bus = world
        cache_id, received = collect(bus, kernel)
        notifier = NotifierProperty(
            bus, cache_id, watch={EventType.CONTENT_UPDATED}
        )
        base.attach(notifier)
        mine.write_content(b"update")
        assert len(received) == 1
        assert received[0].reason is InvalidationReason.SOURCE_UPDATED_IN_BAND
        assert notifier.notifications_sent == 1

    def test_requires_watch_set(self, world):
        kernel, _, _, _, bus = world
        with pytest.raises(NotifierError):
            NotifierProperty(bus, kernel.ctx.ids.cache("c"), watch=set())

    def test_predicate_filters(self, world):
        kernel, base, mine, theirs, bus = world
        cache_id, received = collect(bus, kernel)
        notifier = NotifierProperty(
            bus,
            cache_id,
            watch={EventType.GET_OUTPUT_STREAM},
            predicate=lambda event: event.user_id != mine.owner,
        )
        base.attach(notifier)
        mine.write_content(b"my own write")    # filtered
        theirs.write_content(b"their write")   # passes
        write_open_invalidations = [
            i for i in received
            if i.reason is InvalidationReason.OPENED_FOR_WRITE
        ]
        assert len(write_open_invalidations) == 1
        assert notifier.events_filtered >= 1

    def test_static_property_changes_ignored(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        base.attach(
            NotifierProperty(bus, cache_id, watch={EventType.SET_PROPERTY})
        )
        base.attach(StaticProperty("just a label"))
        assert received == []

    def test_transforming_property_changes_fire(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        base.attach(
            NotifierProperty(
                bus,
                cache_id,
                watch={EventType.SET_PROPERTY, EventType.REMOVE_PROPERTY},
            )
        )
        translator = TranslationProperty()
        base.attach(translator)
        base.detach(translator)
        assert [i.reason for i in received] == [
            InvalidationReason.PROPERTY_ADDED,
            InvalidationReason.PROPERTY_REMOVED,
        ]

    def test_detaching_a_read_chain_property_invalidates(self, world):
        # "Was it on the read chain" is judged from what the property
        # watched: the chain it has just left no longer lists it.  The
        # audit trail reads without transforming, so only that flag
        # makes its removal matter.
        kernel, base, mine, _, bus = world
        cache = DocumentCache(kernel, capacity_bytes=1 << 20, bus=bus)
        audit = mine.attach(ReadAuditTrailProperty())
        removals = mine.attach(EventRecorder({EventType.REMOVE_PROPERTY}))
        assert cache.read(mine).disposition == "miss"
        mine.detach(audit)
        [event] = removals.events_seen()
        assert event.payload["on_read_path"] is True
        reason = InvalidationReason.PROPERTY_REMOVED
        assert cache.stats.invalidations[reason] == 1
        assert cache.read(mine).disposition == "miss"

    def test_infrastructure_properties_ignored(self, world):
        kernel, base, _, _, bus = world
        cache_id, received = collect(bus, kernel)
        base.attach(
            NotifierProperty(bus, cache_id, watch={EventType.SET_PROPERTY})
        )
        # Attaching another notifier must not trigger the first.
        base.attach(
            NotifierProperty(
                bus, cache_id, watch={EventType.CONTENT_UPDATED},
                name="second-notifier",
            )
        )
        assert received == []

    def test_scope_user_carried_on_invalidation(self, world):
        kernel, base, mine, theirs, bus = world
        cache_id, received = collect(bus, kernel)
        notifier = NotifierProperty(
            bus,
            cache_id,
            watch={EventType.CONTENT_UPDATED},
            scope_user=mine.owner,
        )
        base.attach(notifier)
        theirs.write_content(b"x")
        assert received[0].user_id == mine.owner


class TestMinimumNotifiers:
    def test_installs_three(self, world):
        kernel, base, mine, _, bus = world
        cache_id, _ = collect(bus, kernel)
        installed = install_minimum_notifiers(mine, bus, cache_id)
        assert len(installed) == 3
        sites = sorted(p.site.value for p in installed)
        assert sites == ["base", "base", "reference"]

    def test_idempotent_per_user(self, world):
        kernel, base, mine, _, bus = world
        cache_id, _ = collect(bus, kernel)
        install_minimum_notifiers(mine, bus, cache_id)
        again = install_minimum_notifiers(mine, bus, cache_id)
        assert again == []

    def test_second_user_adds_only_write_watch(self, world):
        kernel, base, mine, theirs, bus = world
        cache_id, _ = collect(bus, kernel)
        install_minimum_notifiers(mine, bus, cache_id)
        second = install_minimum_notifiers(theirs, bus, cache_id)
        # base property watch is shared; per-user write watch and the
        # reference watch are new.
        assert len(second) == 2

    def test_other_users_write_invalidates_me(self, world):
        kernel, base, mine, theirs, bus = world
        cache_id, received = collect(bus, kernel)
        install_minimum_notifiers(mine, bus, cache_id)
        theirs.write_content(b"their update")
        reasons = {i.reason for i in received}
        assert InvalidationReason.OPENED_FOR_WRITE in reasons

    def test_my_own_write_does_not_notify_me(self, world):
        kernel, base, mine, _, bus = world
        cache_id, received = collect(bus, kernel)
        install_minimum_notifiers(mine, bus, cache_id)
        mine.write_content(b"my update")
        assert all(
            i.reason is not InvalidationReason.OPENED_FOR_WRITE
            for i in received
        )

    def test_documents_share_watch_sets_and_names(self, world):
        kernel, _, mine, _, bus = world
        cache_id, _ = collect(bus, kernel)
        other = kernel.space(mine.owner).add_reference(
            kernel.create_document(
                mine.owner, MemoryProvider(kernel.ctx, b"other"), "other"
            )
        )
        one = install_minimum_notifiers(mine, bus, cache_id)
        two = install_minimum_notifiers(other, bus, cache_id)
        assert len(one) == len(two) == 3
        for a, b in zip(one, two):
            assert a.name is b.name
            assert a.events_of_interest() is b.events_of_interest()
            assert a.predicate is None  # no closure per notifier

    def test_a_scoped_write_watch_skips_its_users_writes(self, world):
        kernel, base, mine, theirs, bus = world
        cache_id, received = collect(bus, kernel)
        notifier = NotifierProperty(
            bus, cache_id, watch={EventType.GET_OUTPUT_STREAM},
            scope_user=mine.owner,
        )
        base.attach(notifier)
        mine.write_content(b"my own write")
        assert (received, notifier.events_filtered) == ([], 1)
        theirs.write_content(b"their write")
        assert [i.user_id for i in received] == [mine.owner]

    def test_personal_property_watch(self, world):
        kernel, base, mine, _, bus = world
        cache_id, received = collect(bus, kernel)
        install_minimum_notifiers(mine, bus, cache_id)
        mine.attach(TranslationProperty())
        assert any(
            i.reason is InvalidationReason.PROPERTY_ADDED
            and i.user_id == mine.owner
            for i in received
        )
