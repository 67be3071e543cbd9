"""Tests for every bit-provider over its simulated repository."""

from __future__ import annotations

import pytest

from repro.content.signature import sign
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import CompositeVerifier, Verdict
from repro.errors import ContentUnavailableError, ProviderError
from repro.providers.composite import CompositeProvider
from repro.providers.dms import DMSProvider, DocumentManagementSystem
from repro.providers.filesystem import FileSystemProvider
from repro.providers.live import LiveFeedProvider
from repro.providers.mail import (
    MailboxDigestProvider,
    MailServer,
    MessageProvider,
)
from repro.providers.memory import MemoryProvider
from repro.providers.simfs import SimulatedFileSystem
from repro.providers.web import WebOrigin, WebProvider
from repro.sim.context import SimContext


@pytest.fixture
def ctx():
    return SimContext()


class TestMemoryProvider:
    def test_fetch_returns_content_and_charges(self, ctx):
        provider = MemoryProvider(ctx, b"hello")
        before = ctx.clock.now_ms
        fetch = provider.fetch()
        assert fetch.content == b"hello"
        assert ctx.clock.now_ms > before
        assert fetch.retrieval_cost_ms > 0

    def test_store_updates_content_and_generation(self, ctx):
        provider = MemoryProvider(ctx, b"v1")
        provider.store(b"v2")
        assert provider.peek() == b"v2"
        assert provider.generation == 1

    def test_verifier_catches_out_of_band_change(self, ctx):
        provider = MemoryProvider(ctx, b"v1")
        verifier = provider.make_verifier()
        assert verifier.run(0.0, b"").verdict is Verdict.VALID
        provider.mutate_out_of_band(b"v2")
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_peek_does_not_charge_or_count(self, ctx):
        provider = MemoryProvider(ctx, b"v1")
        before = ctx.clock.now_ms
        provider.peek()
        assert ctx.clock.now_ms == before
        assert provider.fetch_count == 0

    def test_in_band_store_notifies_listeners(self, ctx):
        provider = MemoryProvider(ctx, b"v1")
        seen = []
        provider.on_update(seen.append)
        provider.store(b"v2")
        assert seen == [b"v2"]

    def test_out_of_band_does_not_notify(self, ctx):
        provider = MemoryProvider(ctx, b"v1")
        seen = []
        provider.on_update(seen.append)
        provider.mutate_out_of_band(b"v2")
        assert seen == []

    def test_open_input_streams_fetch(self, ctx):
        provider = MemoryProvider(ctx, b"stream me")
        assert provider.open_input().read(-1) == b"stream me"

    def test_estimated_cost_matches_model(self, ctx):
        provider = MemoryProvider(ctx, b"x" * 2048)
        estimate = provider.estimated_retrieval_cost_ms()
        assert estimate == pytest.approx(
            ctx.latency.repository_cost_ms("memory", 2048)
        )


class TestFileSystemProvider:
    def test_roundtrip(self, ctx):
        fs = SimulatedFileSystem(ctx.clock)
        fs.write("/doc", b"file content")
        provider = FileSystemProvider(ctx, fs, "/doc")
        assert provider.fetch().content == b"file content"
        provider.store(b"updated")
        assert fs.read("/doc") == b"updated"

    def test_verifier_polls_mtime(self, ctx):
        fs = SimulatedFileSystem(ctx.clock)
        fs.write("/doc", b"v1")
        provider = FileSystemProvider(ctx, fs, "/doc")
        verifier = provider.make_verifier()
        assert verifier.run(0.0, b"").verdict is Verdict.VALID
        ctx.clock.advance(5.0)
        fs.write("/doc", b"v2")  # direct filesystem write = out of band
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_repository_is_nfs(self, ctx):
        fs = SimulatedFileSystem(ctx.clock)
        fs.write("/doc", b"x")
        assert FileSystemProvider(ctx, fs, "/doc").repository_name == "nfs"


class TestWebProvider:
    def test_get_serves_published_page(self, ctx):
        origin = WebOrigin(ctx.clock, host="www")
        origin.publish("/page", b"<html>", ttl_ms=1000.0)
        provider = WebProvider(ctx, origin, "/page")
        assert provider.fetch().content == b"<html>"

    def test_missing_page_raises(self, ctx):
        origin = WebOrigin(ctx.clock)
        provider = WebProvider(ctx, origin, "/nope")
        with pytest.raises(ContentUnavailableError):
            provider.fetch()

    def test_repository_name_follows_host(self, ctx):
        origin = WebOrigin(ctx.clock, host="parcweb")
        assert WebProvider(ctx, origin, "/x").repository_name == "parcweb"

    def test_ttl_verifier_expires(self, ctx):
        origin = WebOrigin(ctx.clock, host="www")
        origin.publish("/page", b"x", ttl_ms=500.0)
        provider = WebProvider(ctx, origin, "/page")
        verifier = provider.fetch().verifier
        assert verifier.run(ctx.clock.now_ms, b"").verdict is Verdict.VALID
        ctx.clock.advance(600.0)
        assert verifier.run(ctx.clock.now_ms, b"").verdict is Verdict.INVALID

    def test_put_is_in_band(self, ctx):
        origin = WebOrigin(ctx.clock, host="www")
        origin.publish("/page", b"old")
        provider = WebProvider(ctx, origin, "/page")
        seen = []
        provider.on_update(seen.append)
        provider.store(b"new")
        assert origin.get("/page").content == b"new"
        assert origin.get("/page").puts == 1
        assert seen == [b"new"]

    def test_author_edit_is_out_of_band(self, ctx):
        origin = WebOrigin(ctx.clock, host="www")
        origin.publish("/page", b"old")
        ctx.clock.advance(10.0)
        origin.author_edit("/page", b"new")
        record = origin.get("/page")
        assert record.content == b"new"
        assert record.last_modified_ms == 10.0
        assert record.puts == 0

    def test_urls_listing(self, ctx):
        origin = WebOrigin(ctx.clock)
        origin.publish("/b", b"")
        origin.publish("/a", b"")
        assert origin.urls() == ["/a", "/b"]


class TestLiveFeedProvider:
    def test_every_fetch_differs(self, ctx):
        provider = LiveFeedProvider(ctx)
        first = provider.fetch().content
        second = provider.fetch().content
        assert first != second
        assert provider.frames_served == 2

    def test_votes_uncacheable(self, ctx):
        provider = LiveFeedProvider(ctx)
        assert provider.fetch().cacheability is Cacheability.UNCACHEABLE

    def test_cannot_store(self, ctx):
        with pytest.raises(ProviderError):
            LiveFeedProvider(ctx).store(b"frame")

    def test_custom_frame_source(self, ctx):
        provider = LiveFeedProvider(
            ctx, frame_source=lambda now, n: f"{n}".encode()
        )
        assert provider.fetch().content == b"1"


class TestCompositeProvider:
    def test_composes_parts(self, ctx):
        parts = [MemoryProvider(ctx, b"alpha"), MemoryProvider(ctx, b"beta")]
        provider = CompositeProvider(ctx, parts)
        content = provider.fetch().content
        assert b"alpha" in content and b"beta" in content

    def test_custom_composer(self, ctx):
        parts = [MemoryProvider(ctx, b"a"), MemoryProvider(ctx, b"b")]
        provider = CompositeProvider(
            ctx, parts, composer=lambda contents: b"|".join(contents)
        )
        assert provider.fetch().content == b"a|b"

    def test_verifier_is_composite_over_parts(self, ctx):
        parts = [MemoryProvider(ctx, b"a"), MemoryProvider(ctx, b"b")]
        provider = CompositeProvider(ctx, parts)
        fetch = provider.fetch()
        assert isinstance(fetch.verifier, CompositeVerifier)
        assert fetch.verifier.run(0.0, b"").verdict is Verdict.VALID
        parts[1].mutate_out_of_band(b"changed")
        assert fetch.verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_cost_sums_parts(self, ctx):
        parts = [MemoryProvider(ctx, b"a" * 1024), MemoryProvider(ctx, b"b" * 1024)]
        provider = CompositeProvider(ctx, parts)
        fetch = provider.fetch()
        assert fetch.retrieval_cost_ms == pytest.approx(
            sum(ctx.latency.repository_cost_ms("memory", 1024) for _ in parts)
        )

    def test_uncacheable_part_dominates(self, ctx):
        parts = [MemoryProvider(ctx, b"a"), LiveFeedProvider(ctx)]
        provider = CompositeProvider(ctx, parts)
        assert provider.fetch().cacheability is Cacheability.UNCACHEABLE

    def test_empty_parts_raises(self, ctx):
        with pytest.raises(ProviderError):
            CompositeProvider(ctx, [])

    def test_cannot_store(self, ctx):
        provider = CompositeProvider(ctx, [MemoryProvider(ctx, b"a")])
        with pytest.raises(ProviderError):
            provider.store(b"x")


class TestDMS:
    def test_create_and_head(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        assert dms.head("spec") == b"v1"
        assert dms.head_version("spec") == 1

    def test_duplicate_create_raises(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"")
        with pytest.raises(ProviderError):
            dms.create("spec", b"")

    def test_checkin_appends_version(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        dms.checkout("spec", "alice")
        number = dms.checkin("spec", "alice", b"v2")
        assert number == 2
        assert dms.version("spec", 1) == b"v1"
        assert dms.version("spec", 2) == b"v2"

    def test_lock_excludes_other_users(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        dms.checkout("spec", "alice")
        with pytest.raises(ProviderError):
            dms.checkout("spec", "bob")
        with pytest.raises(ProviderError):
            dms.checkin("spec", "bob", b"evil")

    def test_checkin_releases_lock(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        dms.checkout("spec", "alice")
        dms.checkin("spec", "alice", b"v2")
        dms.checkout("spec", "bob")  # no longer locked

    def test_unknown_document_raises(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        with pytest.raises(ContentUnavailableError):
            dms.head("missing")

    def test_bad_version_raises(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        with pytest.raises(ContentUnavailableError):
            dms.version("spec", 2)

    def test_provider_serves_head_and_checks_in(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        provider = DMSProvider(ctx, dms, "spec")
        assert provider.fetch().content == b"v1"
        provider.store(b"v2")
        assert dms.head_version("spec") == 2

    def test_provider_verifier_tracks_versions(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("spec", b"v1")
        provider = DMSProvider(ctx, dms, "spec")
        verifier = provider.make_verifier()
        assert verifier.run(0.0, b"").verdict is Verdict.VALID
        dms.checkout("spec", "author")
        dms.checkin("spec", "author", b"v2")
        assert verifier.run(0.0, b"").verdict is Verdict.INVALID

    def test_documents_listing(self, ctx):
        dms = DocumentManagementSystem(ctx.clock)
        dms.create("b", b"")
        dms.create("a", b"")
        assert dms.documents() == ["a", "b"]


# -- the signature memo, provider by provider ----------------------------------


def _memory(ctx):
    provider = MemoryProvider(ctx, b"alpha")
    return provider, lambda: provider.mutate_out_of_band(b"beta")


def _filesystem(ctx):
    filesystem = SimulatedFileSystem(ctx.clock)
    filesystem.write("/doc", b"alpha")
    provider = FileSystemProvider(ctx, filesystem, "/doc")
    return provider, lambda: filesystem.write("/doc", b"beta")


def _web(ctx):
    origin = WebOrigin(ctx.clock, host="www")
    origin.publish("/page", b"alpha")
    provider = WebProvider(ctx, origin, "/page")
    return provider, lambda: origin.publish("/page", b"beta")


def _dms(ctx):
    dms = DocumentManagementSystem(ctx.clock)
    dms.create("doc", b"alpha")
    provider = DMSProvider(ctx, dms, "doc", "karin")
    return provider, lambda: provider.store(b"beta")


def _composite(ctx):
    part = MemoryProvider(ctx, b"alpha")
    provider = CompositeProvider(ctx, [part, MemoryProvider(ctx, b"tail")])
    return provider, lambda: part.mutate_out_of_band(b"beta")


def _live(ctx):
    frames = [b"gamma", b"beta", b"alpha"]  # equal bytes, fresh object per frame
    provider = LiveFeedProvider(ctx, frame_source=lambda now, n: frames[-1] * 2)
    return provider, frames.pop


def _mail(ctx, provider_class, *uid):
    server = MailServer(ctx.clock)
    server.deliver("inbox", "karin@parc", "draft", b"alpha")
    provider = provider_class(ctx, server, "inbox", *uid)
    return provider, lambda: server.deliver("inbox", "doug@parc", "re", b"beta")


#: kind -> (factory, does the provider hand out one bytes object until
#: the content is replaced?).  Where it does not, the memo misses and
#: the blob is hashed again — slower, never wrong.
_SIGNED = {
    "memory": (_memory, True),
    "filesystem": (_filesystem, True),
    "web": (_web, True),
    "dms": (_dms, True),
    "composite": (_composite, False),
    "live": (_live, False),
    "mail-message": (lambda ctx: _mail(ctx, MessageProvider, 1), False),
    "mail-digest": (lambda ctx: _mail(ctx, MailboxDigestProvider), False),
}


@pytest.mark.parametrize("kind", sorted(_SIGNED))
def test_signature_memo_is_exact_or_misses(ctx, md5_calls, kind):
    factory, same_object = _SIGNED[kind]
    provider, change = factory(ctx)
    for _ in range(2):
        fetched = provider.fetch().content
        assert provider.signature_of(fetched) == sign(fetched)
        md5_calls.clear()
        # Same object: the probe reuses the read path's hash.
        signature = provider.peek_signature()
        assert len(md5_calls) == (0 if same_object else 1)
        assert (provider.peek() is fetched) == same_object
        assert signature == sign(provider.peek())
        change()
    assert provider.peek_signature() == sign(provider.peek())
