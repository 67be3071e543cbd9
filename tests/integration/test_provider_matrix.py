"""The consistency-mechanism matrix across every repository family.

§3: "Documents originate from any number of repositories, many of which
provide different mechanisms to handle cache consistency."  For each
provider family this suite verifies, end-to-end through the cache:

1. content round-trips;
2. in-band updates (where supported) invalidate via notifiers;
3. out-of-band mutation (where it exists) is caught by the family's
   verifier mechanism on the next hit;
4. the family's cacheability contract holds.
"""

from __future__ import annotations

import pytest

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.policies import StoragePolicy
from repro.placeless.kernel import PlacelessKernel
from repro.providers import (
    CompositeProvider,
    DMSProvider,
    DocumentManagementSystem,
    FileSystemProvider,
    LiveFeedProvider,
    MailboxDigestProvider,
    MailServer,
    MemoryProvider,
    MessageProvider,
    SimulatedFileSystem,
    WebOrigin,
    WebProvider,
)


@pytest.fixture
def kernel():
    return PlacelessKernel()


@pytest.fixture
def cached_world(kernel):
    user = kernel.create_user("u")
    cache = DocumentCache(kernel, capacity_bytes=1 << 20)

    def build(provider, hint):
        reference = kernel.import_document(user, provider, hint)
        return reference

    return kernel, user, cache, build


class TestMemoryFamily:
    def test_out_of_band_caught_by_generation_verifier(self, cached_world):
        kernel, user, cache, build = cached_world
        provider = MemoryProvider(kernel.ctx, b"v1")
        reference = build(provider, "mem")
        cache.read(reference)
        provider.mutate_out_of_band(b"v2")
        outcome = cache.read(reference)
        assert not outcome.hit
        assert outcome.content == b"v2"


class TestFileSystemFamily:
    def test_mtime_mechanism(self, cached_world):
        kernel, user, cache, build = cached_world
        fs = SimulatedFileSystem(kernel.ctx.clock)
        fs.write("/f", b"v1")
        reference = build(FileSystemProvider(kernel.ctx, fs, "/f"), "file")
        cache.read(reference)
        assert cache.read(reference).hit
        kernel.ctx.clock.advance(1.0)
        fs.write("/f", b"v2")  # direct write, new mtime
        outcome = cache.read(reference)
        assert not outcome.hit and outcome.content == b"v2"

    def test_same_bytes_new_mtime_still_invalidates(self, cached_world):
        # The mtime verifier is conservative: a touch invalidates even if
        # bytes are unchanged (it cannot know without fetching).
        kernel, user, cache, build = cached_world
        fs = SimulatedFileSystem(kernel.ctx.clock)
        fs.write("/f", b"same")
        reference = build(FileSystemProvider(kernel.ctx, fs, "/f"), "file")
        cache.read(reference)
        kernel.ctx.clock.advance(1.0)
        fs.write("/f", b"same")
        assert not cache.read(reference).hit


class TestWebFamily:
    def test_ttl_mechanism(self, cached_world):
        kernel, user, cache, build = cached_world
        origin = WebOrigin(kernel.ctx.clock, host="www")
        origin.publish("/p", b"page v1", ttl_ms=1000.0)
        reference = build(WebProvider(kernel.ctx, origin, "/p"), "page")
        cache.read(reference)
        origin.author_edit("/p", b"page v2")
        # Within the TTL the stale page is (correctly, per HTTP) served.
        assert cache.read(reference).hit
        kernel.ctx.clock.advance(1001.0)
        outcome = cache.read(reference)
        assert not outcome.hit and outcome.content == b"page v2"


class TestDMSFamily:
    def test_version_mechanism(self, cached_world):
        kernel, user, cache, build = cached_world
        dms = DocumentManagementSystem(kernel.ctx.clock)
        dms.create("spec", b"rev 1")
        reference = build(DMSProvider(kernel.ctx, dms, "spec"), "spec")
        cache.read(reference)
        dms.checkout("spec", "author")
        dms.checkin("spec", "author", b"rev 2")
        outcome = cache.read(reference)
        assert not outcome.hit and outcome.content == b"rev 2"


class TestMailFamily:
    def test_message_immutability_and_digest_staleness(self, cached_world):
        kernel, user, cache, build = cached_world
        mail = MailServer(kernel.ctx.clock)
        mail.deliver("inbox", "a@b", "one", b"first")
        message_ref = build(
            MessageProvider(kernel.ctx, mail, "inbox", 1), "msg"
        )
        digest_ref = build(
            MailboxDigestProvider(kernel.ctx, mail, "inbox"), "digest"
        )
        cache.read(message_ref)
        cache.read(digest_ref)
        mail.deliver("inbox", "c@d", "two", b"second")
        assert cache.read(message_ref).hit        # immutable
        assert not cache.read(digest_ref).hit     # appended


class TestLiveFamily:
    def test_never_cached(self, cached_world):
        kernel, user, cache, build = cached_world
        reference = build(LiveFeedProvider(kernel.ctx), "video")
        contents = {cache.read(reference).content for _ in range(3)}
        assert len(contents) == 3
        assert cache.stats.hits == 0


class TestCompositeFamily:
    def test_any_part_change_invalidates(self, cached_world):
        kernel, user, cache, build = cached_world
        parts = [
            MemoryProvider(kernel.ctx, b"part A"),
            MemoryProvider(kernel.ctx, b"part B"),
        ]
        reference = build(CompositeProvider(kernel.ctx, parts), "composed")
        cache.read(reference)
        assert cache.read(reference).hit
        parts[1].mutate_out_of_band(b"part B changed")
        outcome = cache.read(reference)
        assert not outcome.hit
        assert b"part B changed" in outcome.content

    def test_a_part_change_misses_across_a_demote_promote(self, tmp_path):
        # A recovered L2 record rebuilds its verifiers from the provider:
        # the composite's are its parts'.  Neither they nor the promote
        # path may serve the old composition once any part has changed.
        kernel = PlacelessKernel()
        user = kernel.create_user("u")
        parts = [MemoryProvider(kernel.ctx, p * 350) for p in (b"A", b"B")]
        reference = kernel.import_document(
            user, CompositeProvider(kernel.ctx, parts), "composed"
        )
        filler = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"f" * 700), "filler"
        )
        cache = DocumentCache(
            kernel, capacity_bytes=750,
            storage_policy=StoragePolicy(directory=str(tmp_path)),
        )

        def demote_and_recover() -> None:
            cache.read(filler)  # one slot: the composite is demoted
            assert EntryKey.for_reference(reference) in cache.storage
            cache.crash()
            cache.restart()

        def read() -> str:
            outcome = cache.read(reference)
            assert outcome.content == kernel.read(reference).content
            return outcome.disposition

        try:
            cache.read(reference)
            demote_and_recover()
            assert read() == "miss-promoted"  # verifiers rebuilt
            parts[0].mutate_out_of_band(b"part A changed")
            assert read() == "miss"  # the rebuilt composite catches it
            demote_and_recover()
            parts[1].mutate_out_of_band(b"part B changed")
            assert read() == "miss"  # the promotion is refused
            assert read() == "hit"
        finally:
            cache.shutdown()


class TestCrossFamilyCorpus:
    def test_mixed_corpus_through_one_cache(self, kernel):
        """Every family coexists in one cache with correct behaviour."""
        user = kernel.create_user("u")
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        fs = SimulatedFileSystem(kernel.ctx.clock)
        fs.write("/f", b"file")
        origin = WebOrigin(kernel.ctx.clock, host="parcweb")
        origin.publish("/p", b"page", ttl_ms=1e9)
        dms = DocumentManagementSystem(kernel.ctx.clock)
        dms.create("d", b"dms")
        mail = MailServer(kernel.ctx.clock)
        mail.deliver("m", "a@b", "s", b"mail")
        providers = [
            MemoryProvider(kernel.ctx, b"memory"),
            FileSystemProvider(kernel.ctx, fs, "/f"),
            WebProvider(kernel.ctx, origin, "/p"),
            DMSProvider(kernel.ctx, dms, "d"),
            MessageProvider(kernel.ctx, mail, "m", 1),
            LiveFeedProvider(kernel.ctx),
        ]
        refs = [
            kernel.import_document(user, provider, f"doc-{i}")
            for i, provider in enumerate(providers)
        ]
        for ref in refs:
            cache.read(ref)
        # Everything except the live feed is cached.
        assert len(cache) == 5
        hits = sum(1 for ref in refs if cache.read(ref).hit)
        assert hits == 5
