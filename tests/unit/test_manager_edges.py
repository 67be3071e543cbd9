"""Edge-case tests for the cache manager: revalidation under pressure,
memo-sharing corner cases, describe(), and forwarding details."""

from __future__ import annotations

import pytest

from repro.__main__ import describe_cache
from repro.cache.manager import DocumentCache
from repro.cache.policies import MemoPolicy
from repro.cluster.memo_share import SharedTransformMemo
from repro.contract.verifiers import ThresholdVerifier
from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.qos import AlwaysAvailableProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider


class GrowingPatchProperty(ActiveProperty):
    """Returns a threshold verifier whose patch doubles the content."""

    def __init__(self, signal):
        super().__init__("grower")
        self.signal = signal

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def make_verifier(self):
        return ThresholdVerifier(
            observe=lambda: self.signal[0],
            baseline=self.signal[0],
            threshold_fraction=0.01,
            patcher=lambda content, value: content * 2,
        )


class TestRevalidationEdges:
    def test_patch_growth_respects_capacity(self, kernel, user):
        signal = [1.0]
        main = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"y" * 120), "main"
        )
        main.attach(GrowingPatchProperty(signal))
        filler = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"x" * 120), "filler"
        )
        cache = DocumentCache(kernel, capacity_bytes=300)
        cache.read(main)
        cache.read(filler)
        assert len(cache) == 2
        signal[0] = 5.0  # triggers the doubling patch: 120 -> 240 bytes
        outcome = cache.read(main)
        assert outcome.disposition == "revalidated"
        assert len(outcome.content) == 240
        # The growth forced the filler out to stay within capacity.
        assert cache.used_bytes <= 300
        assert cache.entry_for(filler) is None

    def test_patched_entry_size_updated(self, kernel, user):
        signal = [1.0]
        main = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"z" * 50), "doc"
        )
        main.attach(GrowingPatchProperty(signal))
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(main)
        signal[0] = 9.0
        cache.read(main)
        assert cache.entry_for(main).size == 100


class TestAdoptionEdges:
    def test_adoption_copies_pinned_flag(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"hot document")
        base = kernel.create_document(user, provider, "doc")
        base.attach(AlwaysAvailableProperty())  # universal: pins everyone
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )
        cache.read(mine)
        assert cache.read(theirs).disposition == "miss-memoized"
        assert cache.entry_for(theirs).pinned

    def test_adoption_skipped_when_verifiers_disabled_still_works(
        self, kernel, user, other_user
    ):
        provider = MemoryProvider(kernel.ctx, b"doc")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            memo_policy=MemoPolicy(), use_verifiers=False,
        )
        cache.read(mine)
        # Without verifiers the record is served unchecked — the
        # documented trade-off of disabling verifiers.
        assert cache.read(theirs).disposition == "miss-memoized"

    def test_adoption_across_caches_on_one_memo_plane(
        self, kernel, user, other_user
    ):
        provider = MemoryProvider(kernel.ctx, b"shared bytes")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        plane = SharedTransformMemo(MemoPolicy().capacity)
        caches = []
        for name, reference in (("app-a", mine), ("app-b", theirs)):
            cache = DocumentCache(
                kernel, capacity_bytes=1 << 20,
                memo_policy=MemoPolicy(), memo=plane, name=name,
            )
            plane.attach(name, cache.core)
            cache.read(reference)
            caches.append(cache)
        # The second user's miss was served by the shared memo, with the
        # bytes imported from the first cache — one kernel read total.
        assert kernel.stats.reads == 1
        assert caches[1].memo_stats.adoptions == 1
        assert caches[1].memo_stats.imports == 1


class TestForwardingEdges:
    def test_forwarded_reads_keep_audit_order(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "doc"
        )
        audit = ReadAuditTrailProperty()
        reference.attach(audit)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        for _ in range(4):
            cache.read(reference)
        kinds = [record.via_cache for record in audit.trail]
        assert kinds == [False, True, True, True]
        # Timestamps are non-decreasing.
        times = [record.at_ms for record in audit.trail]
        assert times == sorted(times)

    def test_forwarding_survives_property_detach(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "doc"
        )
        audit = ReadAuditTrailProperty()
        reference.attach(audit)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        reference.detach(audit)
        # The entry still says CACHEABLE_WITH_EVENTS (its vote at fill
        # time) — but forwarded events now reach nobody.  Detaching an
        # *active* non-transforming property does not invalidate, so the
        # hit path keeps forwarding harmlessly.
        outcome = cache.read(reference)
        assert outcome.hit
        assert audit.reads_observed == 1  # nothing new recorded


class TestDescribe:
    """The entry-table dump ``python -m repro doctor`` prints per shard."""

    def test_describe_lists_entries_and_flags(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"doc"), "doc"
        )
        pinned_ref = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"pin me"), "pinned"
        )
        pinned_ref.attach(AlwaysAvailableProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        cache.read(pinned_ref)
        text = describe_cache(cache)
        assert "2 entries" in text
        assert "[pinned]" in text
        assert "gds" in text

    def test_describe_empty_cache(self, kernel):
        cache = DocumentCache(kernel, capacity_bytes=1024)
        text = describe_cache(cache)
        assert "0 entries" in text


class TestChainSignatureEdges:
    def test_upgrade_breaks_adoption_eligibility(self, kernel, user,
                                                 other_user):
        provider = MemoryProvider(kernel.ctx, b"the doc")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        my_translator = TranslationProperty()
        their_translator = TranslationProperty()
        mine.attach(my_translator)
        theirs.attach(their_translator)
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )
        cache.read(mine)
        their_translator.upgrade()  # v2 != my v1
        outcome = cache.read(theirs)
        assert outcome.disposition == "miss"  # no sharing across versions


class TestSettleBatch:
    """The one batch-settling rule behind both ``read_many``s."""

    @staticmethod
    def _settle(concurrent, gated, return_exceptions):
        from repro.sim.scheduler import settle_batch
        from repro.errors import OverloadShedError

        def read_one(item):
            if isinstance(item, BaseException):
                raise item
            return item

        def iterate(item):
            return read_one(item)
            yield  # pragma: no cover - makes this a generator

        batch = ["a", OverloadShedError("shed"), "b", ValueError("boom"), "c"]
        return batch, lambda: settle_batch(
            batch, read_one, iterate, concurrent=concurrent, gated=gated,
            return_exceptions=return_exceptions,
        )

    @pytest.mark.parametrize("concurrent", [False, True])
    @pytest.mark.parametrize("gated", [False, True])
    def test_return_exceptions_lands_everything_in_place(
        self, concurrent, gated
    ):
        batch, settle = self._settle(concurrent, gated, True)
        assert settle() == batch

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_gated_overload_outcomes_land_in_place_others_raise(
        self, concurrent
    ):
        _, settle = self._settle(concurrent, True, False)
        with pytest.raises(ValueError, match="boom"):
            settle()

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_ungated_first_failure_raises(self, concurrent):
        from repro.errors import OverloadShedError

        _, settle = self._settle(concurrent, False, False)
        with pytest.raises(OverloadShedError):
            settle()
