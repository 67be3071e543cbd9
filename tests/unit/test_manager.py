"""Tests for the DocumentCache manager — hits, misses, consistency,
capacity, write modes and event forwarding."""

from __future__ import annotations

import pytest

from repro.cache.entry import EntryKey
from repro.cache.instrumentation import StageRecorder
from repro.cache.manager import DocumentCache, WriteMode
from repro.cache.notifiers import InvalidationBus
from repro.cache.replacement import LRUPolicy
from repro.contract.cacheability import Cacheability
from repro.contract.consistency import InvalidationReason
from repro.contract.verifiers import ThresholdVerifier, Verifier, VerifierResult, Verdict
from repro.errors import CacheCapacityError
from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.translate import TranslationProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.properties.versioning import VersioningProperty
from repro.providers.live import LiveFeedProvider
from repro.providers.memory import MemoryProvider


@pytest.fixture
def world(kernel, user, other_user):
    provider = MemoryProvider(kernel.ctx, b"hello world")
    base = kernel.create_document(user, provider, "doc")
    mine = kernel.space(user).add_reference(base)
    theirs = kernel.space(other_user).add_reference(base)
    cache = DocumentCache(kernel, capacity_bytes=1 << 20, track_staleness=True)
    return kernel, base, mine, theirs, provider, cache


class TestHitMiss:
    def test_first_read_misses_then_hits(self, world):
        *_, cache = world
        kernel, base, mine, theirs, provider, cache = world
        first = cache.read(mine)
        assert not first.hit and first.disposition == "miss"
        second = cache.read(mine)
        assert second.hit and second.disposition == "hit"
        assert second.content == b"hello world"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_hit_is_much_faster(self, world):
        kernel, base, mine, _, _, cache = world
        miss = cache.read(mine)
        hit = cache.read(mine)
        assert hit.elapsed_ms < miss.elapsed_ms / 5

    def test_per_user_entries(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        outcome = cache.read(theirs)
        assert not outcome.hit  # different user: separate entry
        assert len(cache) == 2

    def test_identical_content_shares_bytes(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        assert len(cache.store) == 1
        assert cache.store.logical_bytes == 2 * len(b"hello world")
        assert cache.store.physical_bytes == len(b"hello world")

    def test_transformed_content_not_shared(self, world):
        kernel, base, mine, theirs, _, cache = world
        mine.attach(TranslationProperty())
        cache.read(mine)
        cache.read(theirs)
        assert len(cache.store) == 2

    def test_entry_metadata(self, world):
        kernel, base, mine, _, _, cache = world
        cache.read(mine)
        entry = cache.entry_for(mine)
        assert entry is not None
        assert entry.size == len(b"hello world")
        assert entry.replacement_cost_ms > 0

    def test_contains_and_len(self, world):
        kernel, base, mine, _, _, cache = world
        assert len(cache) == 0
        cache.read(mine)
        assert EntryKey.for_reference(mine) in cache


class TestVerifiers:
    def test_out_of_band_change_caught_on_hit(self, world):
        kernel, base, mine, _, provider, cache = world
        cache.read(mine)
        provider.mutate_out_of_band(b"changed behind placeless")
        outcome = cache.read(mine)
        assert not outcome.hit
        assert outcome.content == b"changed behind placeless"
        assert cache.stats.verifier_invalidations == 1
        assert (
            cache.stats.invalidations[
                InvalidationReason.SOURCE_UPDATED_OUT_OF_BAND
            ]
            == 1
        )

    def test_verifier_cost_charged_on_hit(self, world):
        kernel, base, mine, _, _, cache = world
        cache.read(mine)
        before = cache.stats.verifier_cost_ms
        cache.read(mine)
        assert cache.stats.verifier_cost_ms > before
        assert cache.stats.verifier_executions >= 1

    def test_use_verifiers_false_skips(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"v1")
        mine = kernel.import_document(user, provider, "doc")
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, use_verifiers=False
        )
        cache.read(mine)
        provider.mutate_out_of_band(b"v2")
        outcome = cache.read(mine)
        assert outcome.hit  # stale, but verifiers are off
        assert outcome.content == b"v1"

    def test_raising_verifier_treated_as_invalid(self, kernel, user):
        class ExplodingVerifier(Verifier):
            def verify(self, now_ms, content):
                raise RuntimeError("boom")

        class ExplodingProperty(ActiveProperty):
            def events_of_interest(self):
                return {EventType.GET_INPUT_STREAM}

            def make_verifier(self):
                return ExplodingVerifier()

        provider = MemoryProvider(kernel.ctx, b"x")
        mine = kernel.import_document(user, provider, "doc")
        mine.attach(ExplodingProperty("exploder"))
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(mine)
        outcome = cache.read(mine)
        assert not outcome.hit
        assert (
            cache.stats.invalidations[InvalidationReason.VERIFIER_FAILED] == 1
        )

    def test_threshold_verifier_revalidates_in_place(self, kernel, user):
        quote = [100.0]

        class QuoteProperty(ActiveProperty):
            transforms_reads = False

            def events_of_interest(self):
                return {EventType.GET_INPUT_STREAM}

            def make_verifier(self):
                return ThresholdVerifier(
                    observe=lambda: quote[0],
                    baseline=quote[0],
                    threshold_fraction=0.05,
                    patcher=lambda content, value: f"quote:{value}".encode(),
                )

        provider = MemoryProvider(kernel.ctx, b"quote:100.0")
        mine = kernel.import_document(user, provider, "portfolio")
        mine.attach(QuoteProperty("quotes"))
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(mine)
        quote[0] = 150.0
        outcome = cache.read(mine)
        assert outcome.hit
        assert outcome.disposition == "revalidated"
        assert outcome.content == b"quote:150.0"
        assert cache.stats.verifier_revalidations == 1
        # The patched bytes are what subsequent hits serve.
        assert cache.read(mine).content == b"quote:150.0"

    @pytest.mark.parametrize(
        "patch", [None, b""], ids=["no-bytes", "explicit-empty-patch"]
    )
    def test_revalidated_serves_only_bytes_the_verifier_handed_over(
        self, kernel, user, patch
    ):
        class RevalidatingVerifier(Verifier):
            def verify(self, now_ms, content):
                return VerifierResult(Verdict.REVALIDATED, patch)

        class RevalidatingProperty(ActiveProperty):
            def events_of_interest(self):
                return {EventType.GET_INPUT_STREAM}

            def make_verifier(self):
                return RevalidatingVerifier()

        mine = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"body"), "doc"
        )
        mine.attach(RevalidatingProperty("revalidator"))
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        assert cache.read(mine).content == b"body"
        later = [cache.read(mine), cache.read(mine)]
        if patch is None:
            # A verdict without bytes is a failed verifier: invalidate
            # and refetch — never ``b""`` stored and served as a hit.
            assert [(o.hit, o.content) for o in later] == [(False, b"body")] * 2
            assert (
                cache.stats.invalidations[InvalidationReason.VERIFIER_FAILED]
                == 2
            )
        else:
            assert [(o.disposition, o.content) for o in later] == [
                ("revalidated", b"")
            ] * 2


class TestCacheability:
    def test_live_feed_never_cached(self, kernel, user):
        mine = kernel.import_document(
            user, LiveFeedProvider(kernel.ctx), "video"
        )
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        first = cache.read(mine)
        second = cache.read(mine)
        assert first.disposition == "uncacheable"
        assert not second.hit
        assert first.content != second.content
        assert len(cache) == 0
        assert cache.stats.uncacheable_reads == 2

    def test_uncacheable_property_blocks_caching(self, world):
        kernel, base, mine, _, _, cache = world
        mine.attach(UncacheableProperty())
        assert cache.read(mine).disposition == "uncacheable"
        assert len(cache) == 0

    def test_event_forwarding_on_hits(self, world):
        kernel, base, mine, _, _, cache = world
        audit = ReadAuditTrailProperty()
        mine.attach(audit)
        cache.read(mine)   # miss: audit sees the real read
        cache.read(mine)   # hit: forwarded event
        cache.read(mine)   # hit: forwarded event
        assert audit.reads_observed == 3
        assert audit.cache_served_reads == 2
        assert cache.stats.forwarded_reads == 2

    def test_oversize_content_not_cached(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"x" * 2000)
        mine = kernel.import_document(user, provider, "big")
        cache = DocumentCache(kernel, capacity_bytes=1000)
        outcome = cache.read(mine)
        assert outcome.disposition == "miss-oversize"
        assert len(cache) == 0

    def test_zero_capacity_rejected(self, kernel):
        with pytest.raises(CacheCapacityError):
            DocumentCache(kernel, capacity_bytes=0)


class TestNotifierIntegration:
    def test_other_users_write_invalidates_entry(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.write(theirs, b"their version")
        outcome = cache.read(mine)
        assert not outcome.hit
        assert outcome.content == b"their version"

    def test_personal_property_add_invalidates_only_me(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        mine.attach(TranslationProperty())
        assert not cache.read(mine).hit
        assert cache.read(theirs).hit

    def test_universal_property_add_invalidates_everyone(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        base.attach(TranslationProperty())
        assert not cache.read(mine).hit
        assert not cache.read(theirs).hit

    def test_property_upgrade_invalidates(self, world):
        kernel, base, mine, _, _, cache = world
        translator = TranslationProperty()
        mine.attach(translator)
        cache.read(mine)
        translator.upgrade()
        assert not cache.read(mine).hit
        assert (
            cache.stats.invalidations[InvalidationReason.PROPERTY_MODIFIED]
            >= 1
        )

    def test_reorder_invalidates(self, world):
        kernel, base, mine, _, _, cache = world
        a = TranslationProperty(name="t1")
        b = TranslationProperty(name="t2")
        mine.attach(a)
        mine.attach(b)
        cache.read(mine)
        notifier_ids = [
            p.property_id for p in mine.active_properties()
            if p not in (a, b)
        ]
        mine.reorder([b.property_id, a.property_id] + notifier_ids)
        assert not cache.read(mine).hit

    def test_install_notifiers_false_misses_changes(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"v1")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            install_notifiers=False, use_verifiers=False,
        )
        cache.read(mine)
        kernel.write(theirs, b"v2")
        outcome = cache.read(mine)
        assert outcome.hit          # nothing told the cache
        assert outcome.content == b"v1"  # stale!


class TestCapacity:
    def test_evicts_to_fit(self, kernel, user):
        cache = DocumentCache(
            kernel, capacity_bytes=250, policy=LRUPolicy()
        )
        refs = []
        for index in range(5):
            provider = MemoryProvider(kernel.ctx, bytes([65 + index]) * 100)
            refs.append(kernel.import_document(user, provider, f"d{index}"))
        for ref in refs:
            cache.read(ref)
        assert cache.used_bytes <= 250
        assert cache.stats.evictions >= 3
        assert (
            cache.stats.invalidations[InvalidationReason.EVICTED]
            == cache.stats.evictions
        )

    def test_lru_keeps_recent(self, kernel, user):
        cache = DocumentCache(kernel, capacity_bytes=250, policy=LRUPolicy())
        refs = []
        for index in range(3):
            provider = MemoryProvider(kernel.ctx, bytes([65 + index]) * 100)
            refs.append(kernel.import_document(user, provider, f"d{index}"))
        cache.read(refs[0])
        cache.read(refs[1])
        cache.read(refs[0])   # refresh 0
        cache.read(refs[2])   # evicts 1
        assert cache.entry_for(refs[0]) is not None
        assert cache.entry_for(refs[1]) is None


class TestWrites:
    def test_write_through_reaches_repository(self, world):
        kernel, base, mine, _, provider, cache = world
        cache.write(mine, b"new content")
        assert provider.peek() == b"new content"
        assert cache.stats.writes_through == 1

    def test_write_through_invalidates_own_entry(self, world):
        kernel, base, mine, _, _, cache = world
        cache.read(mine)
        cache.write(mine, b"new content")
        outcome = cache.read(mine)
        assert not outcome.hit
        assert outcome.content == b"new content"

    def test_write_back_defers_store(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"old")
        mine = kernel.import_document(user, provider, "doc")
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK
        )
        cache.write(mine, b"buffered")
        assert provider.peek() == b"old"
        assert cache.dirty_count == 1
        assert cache.stats.writes_backed == 1

    def test_write_back_flush_pushes_through(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"old")
        mine = kernel.import_document(user, provider, "doc")
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK
        )
        cache.write(mine, b"buffered")
        assert cache.flush(mine)
        assert provider.peek() == b"buffered"
        assert cache.dirty_count == 0
        assert not cache.flush(mine)  # nothing left

    def test_write_back_read_forces_flush(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"old")
        mine = kernel.import_document(user, provider, "doc")
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK
        )
        cache.write(mine, b"buffered")
        outcome = cache.read(mine)
        assert outcome.content == b"buffered"
        assert provider.peek() == b"buffered"

    def test_write_back_cheaper_than_write_through(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"old")
        mine = kernel.import_document(user, provider, "doc")
        through = DocumentCache(kernel, capacity_bytes=1 << 20)
        back = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK,
            name="wb",
        )
        cost_through = through.write(mine, b"data")
        cost_back = back.write(mine, b"data")
        assert cost_back < cost_through

    def test_write_back_forwards_events_to_interested(self, kernel, user):
        provider = MemoryProvider(kernel.ctx, b"v0")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        versioning = VersioningProperty()
        base.attach(versioning)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK
        )
        cache.write(mine, b"v1")
        # The versioning property registered for WRITE_FORWARDED, so it
        # observed the buffered write even though nothing was stored yet.
        assert cache.stats.forwarded_writes == 1
        assert versioning.version_count >= 1

    def test_flush_all(self, kernel, user):
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, write_mode=WriteMode.WRITE_BACK
        )
        refs = [
            kernel.import_document(
                user, MemoryProvider(kernel.ctx, b"x"), f"d{i}"
            )
            for i in range(3)
        ]
        for index, ref in enumerate(refs):
            cache.write(ref, f"content-{index}".encode())
        assert cache.flush_all() == 3
        assert all(
            ref.base.provider.peek() == f"content-{i}".encode()
            for i, ref in enumerate(refs)
        )


class TestExplicitManagement:
    def test_invalidate_document(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        dropped = cache.invalidate_document(base.document_id)
        assert dropped == 2
        assert len(cache) == 0

    def test_invalidate_document_for_one_user(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        dropped = cache.invalidate_document(base.document_id, mine.owner)
        assert dropped == 1
        assert cache.entry_for(theirs) is not None

    def test_clear(self, world):
        kernel, base, mine, theirs, _, cache = world
        cache.read(mine)
        cache.read(theirs)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_stats_hit_ratio(self, world):
        kernel, base, mine, _, _, cache = world
        cache.read(mine)
        cache.read(mine)
        cache.read(mine)
        assert cache.stats.hit_ratio == pytest.approx(2 / 3)
        assert cache.stats.lookups == 3


class TestDeprecatedFastLaneKeyword:
    """``fast_lane=`` outlived the lane it switched (the benchmark's
    probes still pass it); it must select nothing."""

    @staticmethod
    def _replay(**cache_kwargs):
        from repro.placeless.kernel import PlacelessKernel

        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        references = []
        for index in range(3):
            base = kernel.create_document(
                owner,
                MemoryProvider(kernel.ctx, b"document %d" % index),
                f"doc-{index}",
            )
            reference = kernel.space(owner).add_reference(base)
            if index == 1:
                reference.attach(TranslationProperty())
            references.append(reference)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20, **cache_kwargs)
        recorder = StageRecorder()
        cache.instrumentation.subscribe(recorder)
        served = [
            cache.read(references[step % 3]).content for step in range(12)
        ]
        cache.write(references[0], b"rewritten")
        served.append(cache.read(references[0]).content)
        return (
            served,
            vars(cache.stats),
            recorder.rows(),
            kernel.ctx.clock.now_ms,
            type(cache._reads),
        )

    def test_fast_lane_false_builds_the_same_cache(self):
        assert self._replay(fast_lane=False) == self._replay()
        assert self._replay(fast_lane=True) == self._replay()
