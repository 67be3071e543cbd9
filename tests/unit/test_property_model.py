"""Tests for the property model and the property-holder chain semantics."""

from __future__ import annotations

import pytest

from repro.errors import (
    DuplicatePropertyError,
    PropertyNotFoundError,
    PropertyOrderError,
    UnknownEventError,
)
from repro.events.types import Event, EventType
from repro.placeless.properties import (
    ActiveProperty,
    AttachmentSite,
    StaticProperty,
)
from repro.placeless.kernel import PlacelessKernel
from repro.properties.recorder import EventRecorder
from repro.providers.memory import MemoryProvider


class RecordingProperty(ActiveProperty):
    """Test double: records every event it is dispatched."""

    transforms_reads = True

    def __init__(self, name="recorder", events=None):
        super().__init__(name)
        self._events = events or {EventType.GET_INPUT_STREAM}
        self.seen: list[Event] = []

    def events_of_interest(self):
        return set(self._events)

    def handle(self, event):
        self.seen.append(event)


@pytest.fixture
def base(kernel, user):
    return kernel.create_document(user, MemoryProvider(kernel.ctx, b"doc"), "d")


@pytest.fixture
def reference(kernel, user, base):
    return kernel.space(user).add_reference(base)


class TestStaticProperty:
    def test_not_active(self):
        prop = StaticProperty("budget related")
        assert not prop.is_active

    def test_carries_value(self):
        assert StaticProperty("read by", "11/30").value == "11/30"

    def test_describe(self):
        prop = StaticProperty("label")
        assert "static" in prop.describe()


class TestAttachment:
    def test_attach_binds_identity(self, base, user):
        prop = StaticProperty("label")
        base.attach(prop)
        assert prop.is_attached
        assert prop.property_id is not None
        assert prop.site is AttachmentSite.BASE
        assert prop.owner == user
        assert prop.attachment is base

    def test_attach_to_reference_site(self, reference):
        prop = StaticProperty("personal")
        reference.attach(prop)
        assert prop.site is AttachmentSite.REFERENCE

    def test_attach_twice_raises(self, base):
        prop = StaticProperty("label")
        base.attach(prop)
        with pytest.raises(DuplicatePropertyError):
            base.attach(prop)

    def test_a_bad_interest_set_attaches_nothing(self, base):
        recorder = base.attach(EventRecorder())
        chain = base.read_chain()
        before = (
            base.properties, base.chain_epoch,
            dict(base._chains), base._watched, list(recorder.records),
        )
        bad = RecordingProperty(
            "bad", events={EventType.GET_INPUT_STREAM, "get-input-stream"}
        )
        with pytest.raises(UnknownEventError):
            base.attach(bad)
        assert before == (
            base.properties, base.chain_epoch,
            dict(base._chains), base._watched, list(recorder.records),
        )
        assert base.read_chain() is chain
        assert not base.has_property("bad")
        assert not bad.is_attached
        assert (bad.property_id, bad.site, bad.owner) == (None, None, None)
        # Nothing half-done blocks a later, valid attach of the same object.
        bad._events = {EventType.GET_INPUT_STREAM}
        base.attach(bad)
        assert base.read_chain() == (recorder, bad)

    def test_a_non_event_still_raises_after_the_good_set_attached(self, base):
        # attach remembers the bits of each interest set it has checked;
        # a set naming a non-event must never be answered from them.
        good = {EventType.GET_INPUT_STREAM, EventType.TIMER}
        first = base.attach(RecordingProperty("first", events=good))
        watched, epoch = base._watched, base.chain_epoch
        for _ in range(2):
            bad = RecordingProperty("bad", events=good | {"timer"})
            with pytest.raises(UnknownEventError):
                base.attach(bad)
            assert not bad.is_attached and not base.has_property("bad")
            assert (base._watched, base.chain_epoch) == (watched, epoch)
        # An equal good set, another object, attaches with the same bits.
        second = base.attach(RecordingProperty("second", events=set(good)))
        assert base._watched == watched
        assert base.read_chain() == (first, second)

    def test_fresh_holders_never_share_a_mutable_chain(self, kernel, user):
        first, second = (
            kernel.create_document(user, MemoryProvider(kernel.ctx, b"d"), n)
            for n in ("first", "second")
        )
        # No property, no list: every empty holder holds the one ().
        assert first._properties is second._properties == ()
        label = first.attach(StaticProperty("label"))
        assert (list(first), list(second)) == ([label], [])
        assert second._properties == ()
        first.detach(label)
        assert (len(first), len(second)) == (0, 0)
        recorder = first.attach(RecordingProperty("recorder"))
        assert (list(first), list(second)) == ([recorder], [])
        assert first.read_chain() == (recorder,) and second.read_chain() == ()
        other = second.attach(StaticProperty("other"))
        assert (list(first), list(second)) == ([recorder], [other])

    def test_a_raising_set_property_handler_rolls_the_attach_back(self, base):
        class Refuser(ActiveProperty):
            interest = frozenset({EventType.SET_PROPERTY})

            def handle(self, event):
                raise RuntimeError("refused")

        refuser = base.attach(Refuser("refuser"))
        before = (base.properties, base.chain_epoch, base.read_chain())
        newcomer = RecordingProperty("newcomer")
        with pytest.raises(RuntimeError, match="refused"):
            base.attach(newcomer)
        # The chain is as it was: the read-path newcomer is not half in it.
        assert (base.properties, base.chain_epoch, base.read_chain()) == before
        assert not base.has_property("newcomer")
        assert not newcomer.is_attached
        assert not base.has_listener(EventType.GET_INPUT_STREAM)
        # Once nothing refuses, the same object attaches and runs.
        base.detach(refuser)
        base.attach(newcomer)
        assert base.read_chain() == (newcomer,)
        base.dispatch(base.make_event(EventType.GET_INPUT_STREAM))
        assert len(newcomer.seen) == 1

    def test_detach_unbinds(self, base):
        prop = StaticProperty("label")
        base.attach(prop)
        base.detach(prop)
        assert not prop.is_attached
        assert not base.has_property("label")

    def test_detach_unattached_raises(self, base):
        with pytest.raises(PropertyNotFoundError):
            base.detach(StaticProperty("never"))

    def test_detach_by_name(self, base):
        base.attach(StaticProperty("x"))
        base.detach_by_name("x")
        assert len(base) == 0

    def test_find_property(self, base):
        prop = StaticProperty("needle")
        base.attach(StaticProperty("hay"))
        base.attach(prop)
        assert base.find_property("needle") is prop

    def test_find_missing_raises(self, base):
        with pytest.raises(PropertyNotFoundError):
            base.find_property("missing")

    def test_iteration_and_len(self, base):
        base.attach(StaticProperty("a"))
        base.attach(StaticProperty("b"))
        assert [p.name for p in base] == ["a", "b"]
        assert len(base) == 2

    def test_active_properties_filters_static(self, base):
        base.attach(StaticProperty("s"))
        active = RecordingProperty()
        base.attach(active)
        assert base.active_properties() == [active]


class TestLifecycleEvents:
    def test_attach_dispatches_set_property(self, base):
        watcher = RecordingProperty(events={EventType.SET_PROPERTY})
        base.attach(watcher)
        added = RecordingProperty(name="added")
        base.attach(added)
        assert len(watcher.seen) == 1
        payload = watcher.seen[0].payload
        assert payload["name"] == "added"
        assert payload["is_active"] is True
        assert payload["transforms_reads"] is True
        assert payload["on_read_path"] is True
        assert payload["infrastructure"] is False

    def test_static_attach_payload_flags(self, base):
        watcher = RecordingProperty(events={EventType.SET_PROPERTY})
        base.attach(watcher)
        base.attach(StaticProperty("label"))
        payload = watcher.seen[0].payload
        assert payload["is_active"] is False
        assert payload["transforms_reads"] is False
        assert payload["on_read_path"] is False

    def test_detach_dispatches_remove_property(self, base):
        watcher = RecordingProperty(events={EventType.REMOVE_PROPERTY})
        victim = StaticProperty("victim")
        base.attach(watcher)
        base.attach(victim)
        base.detach(victim)
        assert len(watcher.seen) == 1
        assert watcher.seen[0].payload["name"] == "victim"

    def test_detached_property_no_longer_dispatched(self, base, reference):
        prop = RecordingProperty()
        base.attach(prop)
        base.detach(prop)
        reference.open_input().read_all()
        assert prop.seen == []

    def test_upgrade_dispatches_modify_property(self, base):
        watcher = RecordingProperty(events={EventType.MODIFY_PROPERTY})
        target = RecordingProperty(name="target")
        base.attach(watcher)
        base.attach(target)
        target.upgrade()
        assert target.version == 2
        assert len(watcher.seen) == 1
        assert watcher.seen[0].payload["name"] == "target"

    def test_reorder_dispatches_and_validates(self, base):
        first = RecordingProperty(name="first")
        second = RecordingProperty(name="second")
        watcher = RecordingProperty(events={EventType.REORDER_PROPERTIES})
        base.attach(first)
        base.attach(second)
        base.attach(watcher)
        ids = [p.property_id for p in base.properties]
        base.reorder(list(reversed(ids)))
        assert [p.name for p in base.properties] == [
            "recorder", "second", "first",
        ]
        assert len(watcher.seen) == 1

    def test_reorder_partial_permutation_raises(self, base):
        first = RecordingProperty(name="first")
        base.attach(first)
        base.attach(RecordingProperty(name="second"))
        with pytest.raises(PropertyOrderError):
            base.reorder([first.property_id])


class TestTransformSignature:
    def test_non_transforming_signature_is_its_code_identity(self):
        # Every read-chain property has a read-path identity: the memo
        # key and the chain signature cover checks as well as
        # transformers.
        prop = RecordingProperty(name="r")
        prop.transforms_reads = False
        cls = type(prop)
        assert prop.transform_signature() == (
            f"{cls.__module__}.{cls.__qualname__}/r/v1"
        )

    def test_signature_includes_version(self):
        prop = RecordingProperty(name="t")
        before = prop.transform_signature()
        prop.version = 2
        assert prop.transform_signature() != before

    def test_default_bonus_is_zero(self):
        assert RecordingProperty().replacement_cost_bonus_ms() == 0.0
