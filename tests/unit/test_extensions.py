"""Tests for the §4/§5 extensions: pinning, sharing across users
through the transform memo (within one cache and across app-level
caches on one memo plane), placement, and external-dependency policy
placement."""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.notifiers import InvalidationBus
from repro.cache.memo import MEMO_CAPACITY
from repro.cache.policies import MemoPolicy
from repro.cache.replacement import LRUPolicy
from repro.cluster.memo_share import SharedTransformMemo
from repro.errors import CacheError, PropertyError
from repro.placeless.kernel import PlacelessKernel
from repro.properties.access import AccessControlProperty
from repro.properties.external import ExternalDependencyProperty
from repro.properties.qos import AlwaysAvailableProperty
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.topology import CachePlacement, ClusterTopology


def make_refs(kernel, user, count, size=100):
    return [
        kernel.import_document(
            user, MemoryProvider(kernel.ctx, bytes([65 + i]) * size), f"d{i}"
        )
        for i in range(count)
    ]


class TestPinning:
    def test_pinned_entry_survives_pressure(self, kernel, user):
        refs = make_refs(kernel, user, 5, size=100)
        refs[0].attach(AlwaysAvailableProperty())
        cache = DocumentCache(kernel, capacity_bytes=250, policy=LRUPolicy())
        cache.read(refs[0])
        assert cache.entry_for(refs[0]).pinned
        for ref in refs[1:]:
            cache.read(ref)
        # LRU would have evicted refs[0] long ago; pinning kept it.
        assert cache.entry_for(refs[0]) is not None
        assert cache.read(refs[0]).hit

    def test_pinned_entry_still_invalidated_by_writes(self, kernel, user,
                                                      other_user):
        provider = MemoryProvider(kernel.ctx, b"v1")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        mine.attach(AlwaysAvailableProperty())
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(mine)
        cache.write(theirs, b"v2")
        outcome = cache.read(mine)
        assert not outcome.hit
        assert b"v2" in outcome.content

    def test_all_pinned_and_over_capacity_raises(self, kernel, user):
        refs = make_refs(kernel, user, 4, size=100)
        for ref in refs:
            ref.attach(AlwaysAvailableProperty())
        cache = DocumentCache(kernel, capacity_bytes=250)
        cache.read(refs[0])
        cache.read(refs[1])
        with pytest.raises(CacheError):
            cache.read(refs[2])


class TestAdoption:
    """§3's sharing across users: a second user's miss on identical
    transformed content is a signature-only memo serve."""

    @pytest.fixture
    def shared_doc(self, kernel, user, other_user):
        provider = MemoryProvider(kernel.ctx, b"the world document")
        base = kernel.create_document(user, provider, "doc")
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        return provider, base, mine, theirs

    @staticmethod
    def _cache(kernel):
        return DocumentCache(
            kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy()
        )

    def test_identical_chains_adopt(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        mine.attach(TranslationProperty())
        theirs.attach(TranslationProperty())
        cache = self._cache(kernel)
        first = cache.read(mine)
        second = cache.read(theirs)
        assert second.disposition == "miss-memoized"
        assert second.content == first.content
        assert second.elapsed_ms < first.elapsed_ms / 3
        assert cache.memo_stats.adoptions == 1
        assert kernel.stats.reads == 1  # only one full path ran

    def test_plain_references_adopt(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        cache = self._cache(kernel)
        cache.read(mine)
        assert cache.read(theirs).disposition == "miss-memoized"

    def test_different_chains_do_not_adopt(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        mine.attach(TranslationProperty())
        cache = self._cache(kernel)
        cache.read(mine)
        outcome = cache.read(theirs)
        assert outcome.disposition == "miss"
        assert cache.memo_stats.adoptions == 0

    def test_stale_candidate_not_adopted(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        cache = self._cache(kernel)
        cache.read(mine)
        provider.mutate_out_of_band(b"changed behind the cache")
        outcome = cache.read(theirs)
        assert outcome.disposition == "miss"
        assert outcome.content == b"changed behind the cache"

    def test_adoption_disabled_by_default(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(mine)
        assert cache.read(theirs).disposition == "miss"

    def test_adopted_entry_hits_afterwards(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        cache = self._cache(kernel)
        cache.read(mine)
        cache.read(theirs)
        assert cache.read(theirs).hit

    def test_adoption_shares_bytes(self, kernel, shared_doc):
        provider, base, mine, theirs = shared_doc
        cache = self._cache(kernel)
        cache.read(mine)
        cache.read(theirs)
        assert len(cache) == 2
        assert len(cache.store) == 1
        assert cache.store.refcount(cache.entry_for(mine).signature) == 2


def plane_caches(kernel, count, capacity=1 << 20, policy_class=None):
    """Per-user application-level caches sharing one memo plane."""
    names = [f"app-{index}" for index in range(count)]
    plane = SharedTransformMemo(
        MEMO_CAPACITY * count,
        topology=ClusterTopology(
            shards=list(names), default_link="app-to-reference"
        ),
    )
    bus = InvalidationBus(kernel.ctx)
    caches = []
    for name in names:
        cache = DocumentCache(
            kernel, capacity_bytes=capacity, bus=bus,
            placement=CachePlacement.APPLICATION_LEVEL,
            policy=None if policy_class is None else policy_class(),
            memo_policy=MemoPolicy(), memo=plane, name=name,
        )
        plane.attach(name, cache.core)
        caches.append(cache)
    return plane, caches


class TestSharedPlane:
    """§3's sharing across app-level caches: one memo plane, and a
    sibling's store as the source of bytes this cache no longer holds."""

    @pytest.fixture
    def shared(self, kernel, user, other_user):
        base = kernel.create_document(
            user, MemoryProvider(kernel.ctx, b"the shared report"), "doc"
        )
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        plane, caches = plane_caches(kernel, 2)
        return plane, caches, mine, theirs

    def test_second_user_imports_from_the_sibling(self, kernel, shared):
        plane, (a, b), mine, theirs = shared
        first = a.read(mine)
        outcome = b.read(theirs)
        assert outcome.disposition == "miss-memoized"
        assert outcome.content == first.content
        assert kernel.stats.reads == 1
        assert plane.imports == 1 and b.memo_stats.imports == 1

    def test_a_hit_does_not_touch_the_plane(self, kernel, shared):
        plane, (a, b), mine, theirs = shared
        a.read(mine)
        b.read(theirs)
        # Each cache holds its own copy: a hit consults nothing shared.
        assert a.read(mine).hit and b.read(theirs).hit
        assert (a.memo_stats.consults, b.memo_stats.consults) == (1, 1)
        assert plane.imports == 1 and kernel.stats.reads == 1

    def test_evicted_bytes_come_back_from_a_sibling(self, kernel, user,
                                                    other_user):
        refs = make_refs(kernel, user, 4, size=100)
        plane, (a, b) = plane_caches(
            kernel, 2, capacity=250, policy_class=LRUPolicy
        )
        theirs = kernel.space(other_user).add_reference(refs[0].base)
        b.read(theirs)
        for ref in refs:
            a.read(ref)
        # refs[0] was evicted from A but lives in B's store.
        assert a.entry_for(refs[0]) is None
        assert b.entry_for(theirs) is not None
        reads_before, imports_before = kernel.stats.reads, plane.imports
        outcome = a.read(refs[0])
        assert outcome.disposition == "miss-memoized"
        assert outcome.content == b"A" * 100
        assert kernel.stats.reads == reads_before
        assert plane.imports == imports_before + 1

    def test_another_users_write_reaches_every_cache(self, kernel, shared):
        _, (a, b), mine, theirs = shared
        a.read(mine)
        b.read(theirs)
        third = kernel.create_user("carol")
        kernel.write(
            kernel.space(third).add_reference(mine.base), b"rewritten by carol"
        )
        for cache, reference in ((a, mine), (b, theirs)):
            outcome = cache.read(reference)
            assert not outcome.hit
            assert outcome.content == b"rewritten by carol"

    def test_access_checked_chain_is_never_imported(self, kernel, user,
                                                    other_user):
        base = kernel.create_document(
            user, MemoryProvider(kernel.ctx, b"payroll"), "doc"
        )
        base.attach(AccessControlProperty(allowed={user, other_user}))
        mine = kernel.space(user).add_reference(base)
        theirs = kernel.space(other_user).add_reference(base)
        plane, (a, b) = plane_caches(kernel, 2)
        a.read(mine)
        assert b.read(theirs).disposition == "miss"
        # The access check saw the second read: the kernel ran it.
        assert kernel.stats.reads == 2
        assert plane.imports == 0 and len(plane) == 0
        assert b.memo_stats.consults == 0


class TestPlacementLatency:
    def test_server_colocated_hits_cost_more(self, kernel, user):
        refs = make_refs(kernel, user, 1, size=1000)
        app = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            placement=CachePlacement.APPLICATION_LEVEL, name="app",
        )
        server = DocumentCache(
            kernel, capacity_bytes=1 << 20,
            placement=CachePlacement.SERVER_COLOCATED, name="srv",
        )
        app.read(refs[0])
        server.read(refs[0])
        app_hit = app.read(refs[0]).elapsed_ms
        server_hit = server.read(refs[0]).elapsed_ms
        assert server_hit > app_hit


class TestExternalDependencyProperty:
    def test_verifier_mode_catches_change(self, kernel, user):
        value = [1]
        ref = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"body"), "doc"
        )
        ref.attach(
            ExternalDependencyProperty(lambda: value[0], mode="verifier")
        )
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        first = cache.read(ref)
        assert b"[external=1]" in first.content
        assert cache.read(ref).hit
        value[0] = 2
        outcome = cache.read(ref)
        assert not outcome.hit
        assert b"[external=2]" in outcome.content

    def test_notifier_mode_invalidates_on_poll(self, kernel, user):
        value = [1]
        ref = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"body"), "doc"
        )
        bus = InvalidationBus(kernel.ctx)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20, bus=bus)
        prop = ExternalDependencyProperty(
            lambda: value[0], mode="notifier",
            timers=kernel.timers, bus=bus, cache_id=cache.cache_id,
            poll_period_ms=100.0,
        )
        ref.attach(prop)
        cache.read(ref)
        value[0] = 2
        assert cache.read(ref).hit  # notifier hasn't polled yet: stale hit
        kernel.ctx.clock.advance(150.0)  # poll fires
        assert prop.invalidations_pushed == 1
        outcome = cache.read(ref)
        assert not outcome.hit
        assert b"[external=2]" in outcome.content

    def test_notifier_mode_requires_plumbing(self):
        with pytest.raises(PropertyError):
            ExternalDependencyProperty(lambda: 1, mode="notifier")

    def test_unknown_mode_rejected(self):
        with pytest.raises(PropertyError):
            ExternalDependencyProperty(lambda: 1, mode="psychic")

    def test_detach_stops_polling(self, kernel, user):
        value = [1]
        ref = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"body"), "doc"
        )
        bus = InvalidationBus(kernel.ctx)
        cache = DocumentCache(kernel, capacity_bytes=1 << 20, bus=bus)
        prop = ExternalDependencyProperty(
            lambda: value[0], mode="notifier",
            timers=kernel.timers, bus=bus, cache_id=cache.cache_id,
            poll_period_ms=100.0,
        )
        ref.attach(prop)
        ref.detach(prop)
        value[0] = 2
        kernel.ctx.clock.advance(500.0)
        assert prop.invalidations_pushed == 0
