"""Tests for document collections and collection-aware prefetch."""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.errors import PlacelessError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.placeless.collection import DocumentCollection
from repro.properties.collection import (
    CollectionPrefetchProperty,
    attach_collection_prefetch,
)
from repro.providers.memory import MemoryProvider


@pytest.fixture
def project(kernel, user):
    refs = [
        kernel.import_document(
            user, MemoryProvider(kernel.ctx, f"chapter {i}".encode()), f"ch{i}"
        )
        for i in range(4)
    ]
    collection = DocumentCollection("book", user)
    for ref in refs:
        collection.add(ref)
    return refs, collection


class TestDocumentCollection:
    def test_membership(self, project):
        refs, collection = project
        assert len(collection) == 4
        assert refs[0] in collection
        assert list(collection) == refs

    def test_add_is_idempotent(self, project):
        refs, collection = project
        collection.add(refs[0])
        assert len(collection) == 4

    def test_foreign_reference_rejected(self, kernel, user, other_user, project):
        _, collection = project
        foreign = kernel.import_document(
            other_user, MemoryProvider(kernel.ctx, b"x"), "foreign"
        )
        with pytest.raises(PlacelessError):
            collection.add(foreign)

    def test_remove(self, project):
        refs, collection = project
        collection.remove(refs[1])
        assert refs[1] not in collection
        collection.remove(refs[1])  # no-op

    def test_siblings_of(self, project):
        refs, collection = project
        siblings = collection.siblings_of(refs[2])
        assert refs[2] not in siblings
        assert len(siblings) == 3

    def test_document_ids(self, project):
        refs, collection = project
        assert collection.document_ids() == {
            ref.base.document_id for ref in refs
        }


class TestPrefetch:
    def test_reading_one_member_prefetches_siblings(self, kernel, project):
        refs, collection = project
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        attach_collection_prefetch(collection, cache)
        cache.read(refs[0])
        # The demand read filled one entry; the drain filled the rest.
        assert len(cache) == 4
        assert cache.stats.prefetch_fills == 3

    def test_prefetched_siblings_hit(self, kernel, project):
        refs, collection = project
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        attach_collection_prefetch(collection, cache)
        cache.read(refs[0])
        outcome = cache.read(refs[1])
        assert outcome.hit
        assert cache.stats.prefetched_hits == 1

    def test_prefetch_does_not_inflate_trigger_latency(self, kernel, project):
        refs, collection = project
        plain_cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        baseline = plain_cache.read(refs[0]).elapsed_ms

        refs2 = [
            kernel.import_document(
                refs[0].owner,
                MemoryProvider(kernel.ctx, f"c{i}".encode()), f"x{i}",
            )
            for i in range(4)
        ]
        collection2 = DocumentCollection("book2", refs[0].owner)
        for ref in refs2:
            collection2.add(ref)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20, name="pf")
        attach_collection_prefetch(collection2, cache)
        triggered = cache.read(refs2[0]).elapsed_ms
        # The prefetch property adds its tiny execution cost but no
        # sibling-fill latency to the triggering read.
        assert triggered < baseline * 1.5

    def test_max_siblings_bounds_speculation(self, kernel, project):
        refs, collection = project
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        for ref in collection:
            ref.attach(
                CollectionPrefetchProperty(collection, cache, max_siblings=1)
            )
        cache.read(refs[0])
        assert cache.stats.prefetch_fills == 1

    def test_already_cached_members_not_requeued(self, kernel, project):
        refs, collection = project
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        attach_collection_prefetch(collection, cache)
        cache.read(refs[0])
        fills_before = cache.stats.prefetch_fills
        cache.read(refs[1])
        assert cache.stats.prefetch_fills == fills_before

    def test_prefetch_requests_counted(self, kernel, project):
        refs, collection = project
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        attach_collection_prefetch(collection, cache)
        cache.read(refs[0])
        assert cache.stats.prefetch_requests == 3

    @pytest.mark.parametrize("batched", [False, True], ids=["read", "read_many"])
    def test_an_offline_sibling_does_not_fail_the_demand_read(
        self, kernel, project, batched
    ):
        # The middle sibling's repository is inside an outage: its
        # speculative fill fails, is counted, and is dropped; the demand
        # read and the other siblings are unaffected.
        refs, collection = project
        refs[2].base.provider.repository_name = "dms"
        kernel.ctx.faults = FaultPlan(
            kernel.ctx.clock,
            outages=(OutageWindow(0.0, float("inf"), target="dms"),),
        )
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        attach_collection_prefetch(collection, cache)
        if batched:
            (outcome,) = cache.read_many([refs[0]])
        else:
            outcome = cache.read(refs[0])
        assert outcome.content == b"chapter 0"
        cached = [cache.entry_for(ref) is not None for ref in refs]
        assert cached == [True, True, False, True]
        assert cache.stats.prefetch_fills == 2
        assert cache.stats.prefetch_requests == 3
        assert cache.stats.fetch_failures == 1
