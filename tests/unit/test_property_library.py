"""Tests for the standard active-property library."""

from __future__ import annotations

import zlib

import pytest

import repro.properties
from repro.cache.notifiers import InvalidationBus, NotifierProperty
from repro.contract.cacheability import Cacheability
from repro.events.types import EventType
from repro.placeless.collection import DocumentCollection
from repro.placeless.kernel import PlacelessKernel
from repro.placeless.properties import ActiveProperty
from repro.properties.access import AccessControlProperty, WatermarkProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.collection import CollectionPrefetchProperty
from repro.properties.compression import CompressionProperty
from repro.properties.encryption import EncryptionProperty
from repro.properties.external import ExternalDependencyProperty
from repro.properties.qos import AlwaysAvailableProperty, QoSProperty
from repro.properties.recorder import EventRecorder
from repro.properties.replication import ReplicationProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.memory import MemoryProvider
from repro.providers.simfs import SimulatedFileSystem


@pytest.fixture
def world(kernel, user):
    provider = MemoryProvider(kernel.ctx, b"The documnet propertys")
    base = kernel.create_document(user, provider, "doc")
    reference = kernel.space(user).add_reference(base)
    return kernel, base, reference, provider


class TestSpellingCorrector:
    def test_corrects_on_read(self, world):
        _, _, reference, _ = world
        reference.attach(SpellingCorrectorProperty())
        assert reference.read_content() == b"The document properties"

    def test_corrects_on_write(self, world):
        _, _, reference, provider = world
        reference.attach(SpellingCorrectorProperty())
        reference.write_content(b"teh seperate documnet")
        assert provider.peek() == b"the separate document"

    def test_preserves_capitalization(self):
        corrector = SpellingCorrectorProperty()
        assert corrector.correct_text("Teh start") == "The start"

    def test_counts_corrections(self, world):
        _, _, reference, _ = world
        corrector = SpellingCorrectorProperty()
        reference.attach(corrector)
        reference.read_content()
        assert corrector.words_corrected == 2

    def test_signature_changes_on_dictionary_upgrade(self, world):
        _, _, reference, _ = world
        corrector = SpellingCorrectorProperty()
        reference.attach(corrector)
        before = corrector.transform_signature()
        corrector.upgrade_dictionary({"wierd": "weird"})
        assert corrector.transform_signature() != before
        assert corrector.version == 2

    def test_custom_dictionary(self):
        corrector = SpellingCorrectorProperty(corrections={"foo": "bar"})
        assert corrector.correct_text("foo teh foo") == "bar teh bar"


class TestTranslation:
    def test_translates_on_read(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"hello world")
        reference = kernel.import_document(user, provider, "doc")
        reference.attach(TranslationProperty())
        assert reference.read_content() == b"bonjour monde"

    def test_write_path_untouched(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"")
        reference = kernel.import_document(user, provider, "doc")
        reference.attach(TranslationProperty())
        reference.write_content(b"hello world")
        assert provider.peek() == b"hello world"

    def test_counts_translations(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"the cache")
        reference = kernel.import_document(user, provider, "doc")
        translator = TranslationProperty()
        reference.attach(translator)
        reference.read_content()
        assert translator.words_translated == 2

    def test_signature_includes_language(self):
        assert "/fr/" in TranslationProperty().transform_signature()


class TestSummary:
    def test_keeps_first_sentences(self):
        summary = SummaryProperty(sentences_per_paragraph=1)
        text = "One. Two. Three.\n\nFour! Five."
        assert summary.summarize_text(text) == "One.\n\nFour!"

    def test_max_sentences_cap(self):
        summary = SummaryProperty(sentences_per_paragraph=2, max_sentences=3)
        text = "A. B. C.\n\nD. E. F.\n\nG."
        assert summary.summarize_text(text) == "A. B.\n\nD."

    def test_on_read_path(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"First. Second. Third.")
        reference = kernel.import_document(user, provider, "doc")
        reference.attach(SummaryProperty())
        assert reference.read_content() == b"First."


class TestVersioning:
    def test_snapshot_taken_before_overwrite(self, world):
        _, base, reference, provider = world
        versioning = VersioningProperty()
        base.attach(versioning)
        reference.write_content(b"new draft")
        assert versioning.version_count == 1
        snapshot = versioning.snapshots[0]
        assert snapshot.content == b"The documnet propertys"
        assert provider.peek() == b"new draft"

    def test_static_link_property_added(self, world):
        _, base, reference, _ = world
        base.attach(VersioningProperty())
        reference.write_content(b"v2")
        assert base.has_property("version-1")
        reference.write_content(b"v3")
        assert base.has_property("version-2")

    def test_get_version_resolves_link(self, world):
        _, base, reference, _ = world
        versioning = VersioningProperty()
        base.attach(versioning)
        reference.write_content(b"v2")
        link = base.find_property("version-1")
        assert versioning.get_version(link.value) == b"The documnet propertys"

    def test_get_unknown_version_raises(self):
        with pytest.raises(KeyError):
            VersioningProperty().get_version("nope")

    def test_snapshot_records_writer(self, world):
        _, base, reference, _ = world
        versioning = VersioningProperty()
        base.attach(versioning)
        reference.write_content(b"v2")
        assert versioning.snapshots[0].saved_by == reference.owner


class TestReplication:
    def test_replicates_on_timer(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"master copy")
        reference = kernel.import_document(user, provider, "doc")
        replica_fs = SimulatedFileSystem(kernel.ctx.clock)
        replication = ReplicationProperty(
            kernel.timers, replica_fs, "/replica/doc", period_ms=100.0
        )
        reference.attach(replication)
        assert replication.replica_content == b""
        kernel.ctx.clock.advance(150.0)
        assert replication.replica_content == b"master copy"
        assert replication.replications == 1

    def test_replica_follows_updates(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"v1")
        reference = kernel.import_document(user, provider, "doc")
        replica_fs = SimulatedFileSystem(kernel.ctx.clock)
        replication = ReplicationProperty(
            kernel.timers, replica_fs, "/r", period_ms=100.0
        )
        reference.attach(replication)
        kernel.ctx.clock.advance(150.0)
        reference.write_content(b"v2")
        kernel.ctx.clock.advance(100.0)
        assert replication.replica_content == b"v2"

    def test_detach_cancels_timer(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"x")
        reference = kernel.import_document(user, provider, "doc")
        replica_fs = SimulatedFileSystem(kernel.ctx.clock)
        replication = ReplicationProperty(
            kernel.timers, replica_fs, "/r", period_ms=100.0
        )
        reference.attach(replication)
        reference.detach(replication)
        kernel.ctx.clock.advance(500.0)
        assert replication.replications == 0
        assert kernel.timers.live_subscriptions() == []


class TestAudit:
    def test_records_reads(self, world):
        _, _, reference, _ = world
        audit = ReadAuditTrailProperty()
        reference.attach(audit)
        reference.read_content()
        reference.read_content()
        assert audit.reads_observed == 2
        assert audit.cache_served_reads == 0

    def test_votes_cacheable_with_events(self):
        vote = ReadAuditTrailProperty().cacheability_vote()
        assert vote is Cacheability.CACHEABLE_WITH_EVENTS

    def test_forwarded_reads_marked(self, world):
        _, _, reference, _ = world
        audit = ReadAuditTrailProperty()
        reference.attach(audit)
        event = reference.make_event(EventType.READ_FORWARDED)
        reference.dispatcher.dispatch(event)
        assert audit.cache_served_reads == 1


class TestQoS:
    def test_inflation_defaults_scale_with_target(self):
        tight = QoSProperty(max_access_time_ms=100.0)
        loose = QoSProperty(max_access_time_ms=900.0)
        assert tight.inflation_ms > loose.inflation_ms

    def test_explicit_inflation(self):
        assert QoSProperty(inflation_ms=42.0).replacement_cost_bonus_ms() == 42.0

    def test_compliance_accounting(self):
        qos = QoSProperty(max_access_time_ms=10.0)
        qos.record_access(5.0)
        qos.record_access(20.0)
        assert qos.violations == 1
        assert qos.compliance == 0.5

    def test_compliance_empty_is_one(self):
        assert QoSProperty().compliance == 1.0

    def test_inflates_read_path_cost(self, world):
        _, _, reference, _ = world
        plain = reference.open_input()
        plain.read_all()
        baseline = plain.meta.replacement_cost_ms
        reference.attach(QoSProperty(max_access_time_ms=100.0))
        inflated = reference.open_input()
        inflated.read_all()
        assert inflated.meta.replacement_cost_ms > baseline + 100.0


class TestUncacheable:
    def test_votes_uncacheable(self, world):
        _, _, reference, _ = world
        reference.attach(UncacheableProperty())
        result = reference.open_input()
        result.read_all()
        assert result.meta.cacheability is Cacheability.UNCACHEABLE


class TestEncryption:
    def test_roundtrip_through_document(self, kernel, user):
        provider = MemoryProvider(kernel.ctx)
        reference = kernel.import_document(user, provider, "secret")
        reference.attach(EncryptionProperty(b"key"))
        reference.write_content(b"attack at dawn")
        assert provider.peek() != b"attack at dawn"
        assert reference.read_content() == b"attack at dawn"

    def test_chunked_writes_and_reads_consistent(self, kernel, user):
        provider = MemoryProvider(kernel.ctx)
        reference = kernel.import_document(user, provider, "secret")
        reference.attach(EncryptionProperty(b"key"))
        result = reference.open_output()
        for chunk in (b"attack", b" at", b" dawn"):
            result.stream.write(chunk)
        result.stream.close()
        stream = reference.open_input().stream
        pieces = iter(lambda: stream.read(3), b"")
        assert b"".join(pieces) == b"attack at dawn"

    def test_wrong_key_garbles(self, kernel, user):
        provider = MemoryProvider(kernel.ctx)
        reference = kernel.import_document(user, provider, "secret")
        enc = EncryptionProperty(b"key-one")
        reference.attach(enc)
        reference.write_content(b"plaintext")
        reference.detach(enc)
        reference.attach(EncryptionProperty(b"key-two"))
        assert reference.read_content() != b"plaintext"

    def test_empty_key_raises(self):
        with pytest.raises(ValueError):
            EncryptionProperty(b"")

    def test_signature_depends_on_key(self):
        one = EncryptionProperty(b"a").transform_signature()
        two = EncryptionProperty(b"b").transform_signature()
        assert one != two


class TestCompression:
    def test_stores_compressed_serves_plain(self, kernel, user):
        provider = MemoryProvider(kernel.ctx)
        reference = kernel.import_document(user, provider, "doc")
        reference.attach(CompressionProperty())
        payload = b"repetitive " * 200
        reference.write_content(payload)
        at_rest = provider.peek()
        assert len(at_rest) < len(payload)
        assert zlib.decompress(at_rest) == payload
        assert reference.read_content() == payload

    def test_empty_document_roundtrip(self, kernel, user):
        provider = MemoryProvider(kernel.ctx)
        reference = kernel.import_document(user, provider, "doc")
        reference.attach(CompressionProperty())
        assert reference.read_content() == b""

    def test_invalid_level_raises(self):
        with pytest.raises(ValueError):
            CompressionProperty(level=10)


# -- shared interest sets -------------------------------------------------------

#: A watch built once by the caller, and handed to every instance as is.
_WATCH = frozenset({EventType.GET_OUTPUT_STREAM, EventType.CONTENT_UPDATED})

#: Per shipped active property, one factory (from a kernel) for each
#: configuration its interest set depends on.
_CONFIGURATIONS = {
    "AccessControlProperty": (
        lambda k: AccessControlProperty(allowed=set()),
        lambda k: AccessControlProperty(allowed=set(), deny_writes=False),
        lambda k: AccessControlProperty(allowed=set(), deny_reads=False),
    ),
    "AlwaysAvailableProperty": (lambda k: AlwaysAvailableProperty(),),
    "CollectionPrefetchProperty": (
        lambda k: CollectionPrefetchProperty(
            DocumentCollection("c", k.create_user("c")), cache=None
        ),
    ),
    "CompressionProperty": (lambda k: CompressionProperty(),),
    "EncryptionProperty": (lambda k: EncryptionProperty(b"key"),),
    "EventRecorder": (
        lambda k: EventRecorder(),
        lambda k: EventRecorder(watch=_WATCH),
    ),
    "ExternalDependencyProperty": (
        lambda k: ExternalDependencyProperty(lambda: 1),
        lambda k: ExternalDependencyProperty(
            lambda: 1, mode="notifier", timers=k.timers,
            bus=InvalidationBus(k.ctx), cache_id=k.ctx.ids.cache("c"),
        ),
    ),
    "NotifierProperty": (
        lambda k: NotifierProperty(
            InvalidationBus(k.ctx), k.ctx.ids.cache("c"), watch=_WATCH
        ),
    ),
    "QoSProperty": (lambda k: QoSProperty(),),
    "ReadAuditTrailProperty": (lambda k: ReadAuditTrailProperty(),),
    "ReplicationProperty": (
        lambda k: ReplicationProperty(
            k.timers, SimulatedFileSystem(k.ctx.clock), "/replica"
        ),
    ),
    "SpellingCorrectorProperty": (lambda k: SpellingCorrectorProperty(),),
    "SummaryProperty": (lambda k: SummaryProperty(),),
    "TranslationProperty": (lambda k: TranslationProperty(),),
    "UncacheableProperty": (lambda k: UncacheableProperty(),),
    "VersioningProperty": (lambda k: VersioningProperty(),),
    "WatermarkProperty": (lambda k: WatermarkProperty(),),
}

_SHIPPED = sorted(
    {
        cls
        for cls in map(repro.properties.__dict__.get, repro.properties.__all__)
        if isinstance(cls, type) and issubclass(cls, ActiveProperty)
    } | {NotifierProperty},
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", _SHIPPED, ids=lambda cls: cls.__name__)
def test_instances_share_one_interest_set(cls, kernel, user):
    # A new shipped property needs its configurations listed above.
    configurations = _CONFIGURATIONS[cls.__name__]
    base = kernel.create_document(user, MemoryProvider(kernel.ctx), "doc")
    for make in configurations:
        first, second = make(kernel), make(kernel)
        assert type(first) is cls
        interest = first.events_of_interest()
        assert type(interest) is frozenset and interest
        assert second.events_of_interest() is interest
        base.attach(first)
        assert first._registration.event_types is interest
