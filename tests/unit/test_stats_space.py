"""Direct tests for cache statistics helpers and space lookups."""

from __future__ import annotations

import pytest

from repro.cache.stats import CacheStats
from repro.contract.consistency import InvalidationClass, InvalidationReason
from repro.errors import ReferenceNotFoundError
from repro.providers.memory import MemoryProvider


class TestCacheStatsHelpers:
    def test_invalidations_by_class_aggregates(self):
        stats = CacheStats()
        stats.record_invalidation(InvalidationReason.SOURCE_UPDATED_IN_BAND)
        stats.record_invalidation(InvalidationReason.OPENED_FOR_WRITE)
        stats.record_invalidation(InvalidationReason.PROPERTY_ADDED)
        stats.record_invalidation(InvalidationReason.EVICTED)
        by_class = stats.invalidations_by_class()
        assert by_class[InvalidationClass.SOURCE_MODIFIED] == 2
        assert by_class[InvalidationClass.PROPERTIES_CHANGED] == 1
        assert by_class[InvalidationClass.BOOKKEEPING] == 1

    def test_mean_latencies(self):
        stats = CacheStats(hits=2, hit_latency_ms=1.0)
        assert stats.mean_hit_latency_ms == pytest.approx(0.5)

    def test_means_zero_when_empty(self):
        stats = CacheStats()
        assert stats.mean_hit_latency_ms == 0.0
        assert stats.hit_ratio == 0.0

    def test_merged_empty_list(self):
        merged = CacheStats.merged([])
        assert merged.hits == 0

    def test_merged_three_way(self):
        parts = [CacheStats(hits=i, verifier_cost_ms=float(i)) for i in range(3)]
        merged = CacheStats.merged(parts)
        assert merged.hits == 3
        assert merged.verifier_cost_ms == pytest.approx(3.0)


class TestSpaceLookups:
    def test_reference_for_document(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"x"), "doc"
        )
        space = kernel.space(user)
        assert (
            space.reference_for_document(reference.base.document_id)
            is reference
        )

    def test_reference_for_unknown_document_raises(self, kernel, user):
        from repro.ids import DocumentId

        with pytest.raises(ReferenceNotFoundError):
            kernel.space(user).reference_for_document(DocumentId("none"))

    def test_get_unknown_reference_raises(self, kernel, user):
        from repro.ids import ReferenceId

        with pytest.raises(ReferenceNotFoundError):
            kernel.space(user).get(ReferenceId("none"))

    def test_describe_helpers(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"x"), "doc"
        )
        assert "doc" in reference.base.describe()
        assert "personal properties" in reference.describe()
