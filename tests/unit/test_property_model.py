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
            dict(base.dispatcher._registrations), list(recorder.records),
        )
        bad = RecordingProperty(
            "bad", events={EventType.GET_INPUT_STREAM, "get-input-stream"}
        )
        with pytest.raises(UnknownEventError):
            base.attach(bad)
        assert before == (
            base.properties, base.chain_epoch,
            dict(base.dispatcher._registrations), list(recorder.records),
        )
        assert base.read_chain() is chain
        assert not base.has_property("bad")
        assert not bad.is_attached
        assert (bad.property_id, bad.site, bad.owner) == (None, None, None)
        # Nothing half-done blocks a later, valid attach of the same object.
        bad._events = {EventType.GET_INPUT_STREAM}
        base.attach(bad)
        assert base.read_chain() == (recorder, bad)

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
        assert payload["infrastructure"] is False

    def test_static_attach_payload_flags(self, base):
        watcher = RecordingProperty(events={EventType.SET_PROPERTY})
        base.attach(watcher)
        base.attach(StaticProperty("label"))
        payload = watcher.seen[0].payload
        assert payload["is_active"] is False
        assert payload["transforms_reads"] is False

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
