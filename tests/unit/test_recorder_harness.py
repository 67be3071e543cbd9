"""Tests for the event recorder."""

from __future__ import annotations

from repro.events.types import EventType
from repro.properties.recorder import EventRecorder
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider


class TestEventRecorder:
    def test_records_read_and_write_dispatches(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        recorder = EventRecorder()
        reference.attach(recorder)
        kernel.read(reference)
        kernel.write(reference, b"new")
        assert recorder.count(EventType.GET_INPUT_STREAM) == 1
        assert recorder.count(EventType.GET_OUTPUT_STREAM) == 1

    def test_watch_filter(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        recorder = EventRecorder(watch={EventType.GET_OUTPUT_STREAM})
        reference.attach(recorder)
        kernel.read(reference)
        assert recorder.records == []
        kernel.write(reference, b"x")
        assert len(recorder.records) == 1

    def test_records_property_lifecycle(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        recorder = EventRecorder()
        reference.attach(recorder)
        translator = TranslationProperty()
        reference.attach(translator)
        reference.detach(translator)
        assert recorder.count(EventType.SET_PROPERTY) == 1
        assert recorder.count(EventType.REMOVE_PROPERTY) == 1

    def test_is_infrastructure_does_not_trigger_notifiers(self, kernel, user):
        from repro.cache.manager import DocumentCache

        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        reference.attach(EventRecorder())
        # Attaching the (infrastructure) recorder must not invalidate.
        assert cache.read(reference).hit

    def test_timeline_rendering(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        recorder = EventRecorder()
        reference.attach(recorder)
        assert recorder.timeline() == "(no events recorded)"
        kernel.read(reference)
        timeline = recorder.timeline()
        assert "get-input-stream" in timeline
        assert "ms" in timeline

    def test_clear(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "d"
        )
        recorder = EventRecorder()
        reference.attach(recorder)
        kernel.read(reference)
        recorder.clear()
        assert recorder.events_seen() == []
