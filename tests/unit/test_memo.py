"""Unit tests for the transform memoization plane.

Covers the chain-fingerprint protocol (all four §3 invalidation
classes), the bounded refcount-aware memo table, the admission fast
path (``put_signed``), the instrumentation fast path, and the memo
stage end-to-end: a second user's miss becomes a signature-only memo
serve with no provider fetch and no chain execution — unless the chain
is configured differently or carries a property that must see every
read.
"""

from __future__ import annotations

import pytest

from repro.cache.instrumentation import InstrumentationBus, StageEvent
from repro.cache.manager import DocumentCache
from repro.cache.memo import (
    ChainFingerprint,
    MemoRecord,
    MemoStats,
    TransformMemo,
)
from repro.cache.policies import (
    DefaultContainmentPolicy,
    DefaultMemoPolicy,
    DefaultRecoveryPolicy,
)
from repro.content.signature import sign
from repro.content.store import ContentStore
from repro.errors import PermissionDeniedError
from repro.placeless.chain import property_site, read_plan
from repro.placeless.kernel import PlacelessKernel
from repro.properties.access import AccessControlProperty, WatermarkProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.encryption import EncryptionProperty
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.summarize import SummaryProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.providers.memory import MemoryProvider


def build_world(content=b"hello world of documents", n_users=2):
    """A kernel, one document, and one plain reference per user."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    base = kernel.create_document(
        owner, MemoryProvider(kernel.ctx, content), "doc"
    )
    references = []
    for index in range(n_users):
        user = kernel.create_user(f"user-{index}")
        references.append(kernel.space(user).add_reference(base))
    return kernel, base, references


def fingerprint_reference(reference) -> ChainFingerprint:
    """The memo key *reference*'s read path would record under."""
    return read_plan(reference).fingerprint


#: Two configurations of one shipped property, as factories for user A's
#: and user B's reference: same class, same name, same version, output
#: that differs only by configuration.
TWO_CONFIGURATIONS = {
    "translation": (
        lambda: TranslationProperty({"hello": "bonjour"}),
        lambda: TranslationProperty(
            {"hello": "hola"}, target_language="es"
        ),
    ),
    "spelling": (
        lambda: SpellingCorrectorProperty({"wrold": "world"}),
        lambda: SpellingCorrectorProperty({"wrold": "word"}),
    ),
    "summary": (
        lambda: SummaryProperty(sentences_per_paragraph=1),
        lambda: SummaryProperty(sentences_per_paragraph=2),
    ),
    # Attached at each user's own reference: two owners.
    "watermark": (WatermarkProperty, WatermarkProperty),
    "encryption": (
        lambda: EncryptionProperty(b"key-a"),
        lambda: EncryptionProperty(b"key-b"),
    ),
}


def memo_cache(kernel, **kwargs):
    kwargs.setdefault("memo_policy", DefaultMemoPolicy())
    return DocumentCache(kernel, capacity_bytes=1 << 20, **kwargs)


class TestChainFingerprint:
    """The fingerprint protocol across the §3 invalidation classes."""

    def test_identical_chains_fingerprint_identically(self):
        _, _, (ref_a, ref_b) = build_world()
        ref_a.attach(TranslationProperty())
        ref_b.attach(TranslationProperty())
        assert fingerprint_reference(ref_a) == fingerprint_reference(ref_b)

    def test_add_and_delete_change_fingerprint(self):
        # Class (b): membership changes change the key.
        _, _, (reference, _) = build_world()
        plain = fingerprint_reference(reference)
        prop = reference.attach(TranslationProperty())
        attached = fingerprint_reference(reference)
        assert attached != plain
        reference.detach(prop)
        assert fingerprint_reference(reference) == plain

    def test_modify_changes_fingerprint(self):
        # Class (b): an upgraded property is different code.
        _, _, (reference, _) = build_world()
        prop = reference.attach(TranslationProperty())
        before = fingerprint_reference(reference)
        prop.upgrade()
        assert fingerprint_reference(reference) != before

    def test_reorder_changes_fingerprint(self):
        # Class (c): same member set, different order, different key.
        _, _, (reference, _) = build_world()
        first = reference.attach(SpellingCorrectorProperty())
        second = reference.attach(TranslationProperty())
        before = fingerprint_reference(reference)
        reference.reorder([second.property_id, first.property_id])
        assert fingerprint_reference(reference) != before

    @pytest.mark.parametrize("name", sorted(TWO_CONFIGURATIONS))
    def test_memo_serves_only_its_own_configuration(self, name):
        # Same class, same name, same version: only the configuration
        # differs, and that alone must keep B off A's memo record.
        kernel, _, (ref_a, ref_b) = build_world(
            b"hello wrold. A second sentence. A third.\n\nNext one. Last."
        )
        make_a, make_b = TWO_CONFIGURATIONS[name]
        ref_a.attach(make_a())
        ref_b.attach(make_b())
        expected = kernel.read(ref_b).content
        assert expected != kernel.read(ref_a).content
        cache = memo_cache(kernel)
        cache.read(ref_a)
        outcome = cache.read(ref_b)
        assert outcome.content == expected
        assert outcome.disposition == "miss"

    def test_compose_is_position_sensitive(self):
        assert ChainFingerprint.compose(["a", "b"]) != (
            ChainFingerprint.compose(["b", "a"])
        )
        assert ChainFingerprint.compose([]) == ChainFingerprint.compose([])

    def test_base_chain_participates(self):
        # The read path runs base properties then reference properties;
        # the fingerprint must cover both.
        _, base, (reference, _) = build_world()
        before = fingerprint_reference(reference)
        base.attach(TranslationProperty())
        assert fingerprint_reference(reference) != before


class TestTransformMemo:
    """The bounded LRU table, in isolation."""

    @staticmethod
    def _record(tag: str, fingerprint: str = "chain") -> MemoRecord:
        return MemoRecord(
            source_signature=sign(f"src-{tag}".encode()),
            fingerprint=ChainFingerprint.compose([fingerprint]),
            output_signature=sign(f"out-{tag}".encode()),
        )

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformMemo(0)

    def test_lookup_roundtrip_and_miss(self):
        memo = TransformMemo(4)
        record = self._record("a")
        assert memo.record(record) == 0
        assert memo.lookup(*record.key) is record
        assert memo.lookup(sign(b"other"), record.fingerprint) is None

    def test_lru_eviction_prefers_stale_records(self):
        memo = TransformMemo(2)
        a, b, c = (self._record(tag) for tag in "abc")
        memo.record(a)
        memo.record(b)
        memo.lookup(*a.key)  # freshen a; b is now the LRU victim
        assert memo.record(c) == 1
        assert memo.evictions == 1
        assert memo.lookup(*b.key) is None
        assert memo.lookup(*a.key) is a

    def test_discard_and_purge_all(self):
        memo = TransformMemo(4)
        a, b = self._record("a"), self._record("b")
        memo.record(a)
        memo.record(b)
        memo.discard(a)
        memo.discard(a)  # idempotent
        assert len(memo) == 1
        assert memo.purge_all() == 1
        assert len(memo) == 0


class TestPutSigned:
    """Satellite 1: the admission path signs once."""

    def test_matches_put_semantics(self):
        store = ContentStore()
        content = b"signed once"
        signature = sign(content)
        assert store.put_signed(content, signature) == store.put(content)
        assert store.refcount(signature) == 2
        assert store.get(signature) == content

    def test_mismatched_signature_asserts(self):
        store = ContentStore()
        with pytest.raises(AssertionError):
            store.put_signed(b"content", sign(b"different"))


class TestInstrumentationFastPath:
    """Satellite 2: unobserved buses skip event construction."""

    def test_has_subscribers_tracks_subscriptions(self):
        bus = InstrumentationBus()
        # ``has_subscribers`` is the one spelling: an idle bus is still
        # truthy, so ``bus or InstrumentationBus()`` keeps the bus given.
        assert not bus.has_subscribers and bus
        sink = []
        bus.subscribe(sink.append)
        assert bus.has_subscribers
        bus.unsubscribe(sink.append)
        assert not bus.has_subscribers

    def test_stage_event_is_slotted_and_frozen(self):
        event = StageEvent(stage="read", outcome="hit")
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.stage = "write"

    def test_core_emit_skips_unobserved_bus(self, monkeypatch):
        kernel, _, (reference, _) = build_world()
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        # Nothing subscribes to a fresh cache's bus — its counters are
        # not subscribers — so a read puts no event on it; the counters
        # are still written, at the line that decides them.
        assert not cache.instrumentation.has_subscribers
        emitted: list = []
        monkeypatch.setattr(
            InstrumentationBus, "emit",
            lambda bus, event: emitted.append(event),
        )
        outcome = cache.read(reference)
        assert outcome.disposition == "miss"
        assert emitted == []
        assert cache.stats.misses == 1


class TestMemoEndToEnd:
    """The memo stage inside the full read pipeline."""

    def test_second_user_miss_is_memoized(self):
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = memo_cache(kernel)
        reads_before = kernel.stats.reads
        first = cache.read(ref_a)
        second = cache.read(ref_b)
        assert first.disposition == "miss"
        assert second.disposition == "miss-memoized"
        assert second.content == first.content
        assert kernel.stats.reads - reads_before == 1
        assert cache.memo_stats.chain_executions_avoided == 1
        # Both entries share the one stored copy of the output bytes.
        entry = cache.entry_for(ref_b)
        assert cache.store.refcount(entry.signature) == 2
        # A memoized serve still counts as a miss in the legacy stats.
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_memoized_read_is_cheaper_than_chain_execution(self):
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = memo_cache(kernel)
        first = cache.read(ref_a)
        second = cache.read(ref_b)
        assert second.elapsed_ms < first.elapsed_ms

    def test_off_by_default(self):
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        assert cache.memo is None and cache.memo_stats is None
        cache.read(ref_a)
        assert cache.read(ref_b).disposition == "miss"

    def test_source_change_never_matches(self):
        # Class (a): the consult probes the *current* source signature.
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = memo_cache(kernel)
        cache.read(ref_a)
        base.provider.mutate_out_of_band(b"rewritten out of band")
        outcome = cache.read(ref_b)
        assert outcome.disposition == "miss"
        assert cache.memo_stats.adoptions == 0

    def test_property_add_changes_key(self):
        # Class (b): the second user's extra property misses the memo.
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = memo_cache(kernel)
        cache.read(ref_a)
        ref_b.attach(SpellingCorrectorProperty())
        assert cache.read(ref_b).disposition == "miss"
        assert cache.memo_stats.adoptions == 0
        assert len(cache.memo) == 2  # both chains recorded separately

    def test_reorder_changes_key(self):
        # Class (c): permuted chains must not share memo records.
        kernel, base, references = build_world(n_users=2)
        cache = memo_cache(kernel)
        spell_a = references[0].attach(SpellingCorrectorProperty())
        references[0].attach(TranslationProperty())
        spell_b = references[1].attach(SpellingCorrectorProperty())
        trans_b = references[1].attach(TranslationProperty())
        references[1].reorder([trans_b.property_id, spell_b.property_id])
        cache.read(references[0])
        assert cache.read(references[1]).disposition == "miss"
        assert cache.memo_stats.adoptions == 0
        assert spell_a is not spell_b

    def test_uncacheable_chain_records_nothing(self):
        # Class (d): an UNCACHEABLE vote leaves nothing in the memo, so
        # every later consult misses and the chain runs again.
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(UncacheableProperty())
        cache = memo_cache(kernel)
        assert cache.read(ref_a).disposition == "uncacheable"
        assert cache.read(ref_b).disposition == "uncacheable"
        assert len(cache.memo) == 0
        stats = cache.memo_stats
        assert stats.misses == 2
        assert stats.records == 0 and stats.adoptions == 0

    def test_base_access_check_sees_every_reader(self):
        # The check transforms nothing, so its chain used to share: b
        # was served a's bytes.  It handles read events, so the memo
        # must not consult, record or fly for its chain at all.
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(AccessControlProperty(allowed={ref_a.owner}))
        cache = memo_cache(kernel)
        cache.read(ref_a)
        with pytest.raises(PermissionDeniedError):
            cache.read(ref_b)
        stats = cache.memo_stats
        assert (stats.consults, stats.records, len(cache.memo)) == (0, 0, 0)

    def test_base_audit_trail_sees_every_read(self):
        kernel, base, (ref_a, ref_b) = build_world()
        audit = base.attach(ReadAuditTrailProperty())
        cache = memo_cache(kernel)
        for reference in (ref_a, ref_b, ref_a, ref_b):
            cache.read(reference)
        assert [record.user for record in audit.trail] == [
            ref_a.owner, ref_b.owner, ref_a.owner, ref_b.owner,
        ]
        assert audit.cache_served_reads == 2

    def test_verifier_gated_record_reverified_on_serve(self):
        # Every memo serve re-runs the record's verifiers — not just
        # the first: there is no switch that trusts a record unverified.
        kernel, base, (ref_a, *others) = build_world(n_users=4)
        cache = memo_cache(kernel)
        cache.read(ref_a)
        verifiers = len(cache.entry_for(ref_a).verifiers)
        assert verifiers > 0
        for reference in others:
            executions_before = cache.stats.verifier_executions
            assert cache.read(reference).disposition == "miss-memoized"
            assert (
                cache.stats.verifier_executions
                == executions_before + verifiers
            )

    def test_failing_verifier_drops_record(self):
        # Same bytes re-stored: source signature unchanged, but the
        # modification-time verifier sees a new generation and votes
        # INVALID — the memo must prune instead of serving.
        kernel, base, (ref_a, ref_b) = build_world()
        cache = memo_cache(kernel)
        cache.read(ref_a)
        base.provider.mutate_out_of_band(base.provider.peek())
        assert cache.read(ref_b).disposition == "miss"
        assert cache.memo_stats.verifier_drops == 1

    def test_dead_output_bytes_prune_record(self):
        kernel, base, (ref_a, ref_b) = build_world()
        cache = memo_cache(kernel, use_verifiers=False)
        cache.read(ref_a)
        cache.clear()  # last entry reference gone -> bytes leave store
        assert cache.read(ref_b).disposition == "miss"
        assert cache.memo_stats.dead_drops == 1
        assert len(cache.memo) == 1  # the refetch re-recorded

    @pytest.mark.parametrize("drop", ["dead", "verifier"])
    def test_consults_count_records_found_and_dropped(self, drop):
        # A lookup that finds a record and prunes it reached the table
        # as surely as one that adopted or missed.
        kernel, base, (ref_a, ref_b) = build_world()
        cache = memo_cache(kernel, use_verifiers=(drop == "verifier"))
        cache.read(ref_a)
        if drop == "dead":
            cache.clear()
        else:
            base.provider.mutate_out_of_band(base.provider.peek())
        assert cache.read(ref_b).disposition == "miss"
        stats = cache.memo_stats
        assert stats.misses == 1 and stats.dead_drops + stats.verifier_drops == 1
        assert stats.consults == 2

    def test_lru_bound_emits_evictions(self):
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        user = kernel.create_user("reader")
        refs = []
        for index in range(3):
            b = kernel.create_document(
                owner,
                MemoryProvider(kernel.ctx, f"doc {index}".encode()),
                f"doc-{index}",
            )
            refs.append(kernel.space(user).add_reference(b))
        cache = memo_cache(kernel, memo=TransformMemo(1))
        for reference in refs:
            cache.read(reference)
        assert len(cache.memo) == 1
        assert cache.memo_stats.evictions == 2

    def test_crash_purges_memo(self):
        kernel, base, (ref_a, ref_b) = build_world()
        cache = memo_cache(kernel)
        cache.read(ref_a)
        assert len(cache.memo) == 1
        cache.crash()
        assert len(cache.memo) == 0
        assert cache.memo_stats.purged == 1
        assert cache.read(ref_b).disposition == "miss"

    def test_resync_purges_memo(self):
        kernel, base, (ref_a, _) = build_world()
        cache = memo_cache(
            kernel, recovery_policy=DefaultRecoveryPolicy()
        )
        cache.read(ref_a)
        assert len(cache.memo) == 1
        cache.resync()
        assert len(cache.memo) == 0
        assert cache.memo_stats.purged == 1

    def test_open_breaker_bypasses_memo(self):
        kernel, base, (ref_a, ref_b) = build_world()
        prop = base.attach(TranslationProperty())
        cache = memo_cache(
            kernel,
            containment_policy=DefaultContainmentPolicy(failure_threshold=1),
        )
        cache.read(ref_a)
        guard = cache.containment
        breaker = guard.wrappers.get(
            (base.document_id, property_site(prop))
        )
        breaker.record_failure(kernel.ctx.clock.now_ms)
        assert cache.read(ref_b).disposition != "miss-memoized"
        assert cache.memo_stats.contained_bypasses >= 1

    def test_memoized_entry_behaves_like_filled_entry(self):
        # The adopted entry must survive later hits and invalidations.
        kernel, base, (ref_a, ref_b) = build_world()
        base.attach(TranslationProperty())
        cache = memo_cache(kernel)
        cache.read(ref_a)
        cache.read(ref_b)
        assert cache.read(ref_b).disposition in ("hit", "revalidated")
        dropped = cache.invalidate_document(base.document_id)
        assert dropped == 2

    def test_policy_validation(self):
        # The policy is an opt-in with nothing to set; the table
        # validates its own bound (TestTransformMemo).
        with pytest.raises(TypeError):
            DefaultMemoPolicy(capacity=0)

    def test_stats_projection_counts(self):
        stats = MemoStats()
        assert stats.consults == 0
        stats.adoptions, stats.misses = 3, 2
        stats.dead_drops, stats.verifier_drops = 1, 4
        assert stats.consults == 10
        assert stats.chain_executions_avoided == 3
