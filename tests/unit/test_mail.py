"""Tests for the mail substrate and its providers."""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.contract.verifiers import Verdict
from repro.errors import ContentUnavailableError, ProviderError
from repro.providers.mail import (
    MailboxDigestProvider,
    MailServer,
    MessageProvider,
)


@pytest.fixture
def server(kernel):
    server = MailServer(kernel.ctx.clock)
    server.deliver("inbox", "karin@parc", "caching draft", b"see attached")
    server.deliver("inbox", "doug@parc", "re: caching draft", b"comments inline")
    return server


class TestMailServer:
    def test_deliver_assigns_uids(self, server):
        uids = [m.uid for m in server.messages("inbox")]
        assert uids == [1, 2]

    def test_message_lookup(self, server):
        message = server.message("inbox", 2)
        assert message.sender == "doug@parc"

    def test_missing_message_raises(self, server):
        with pytest.raises(ContentUnavailableError):
            server.message("inbox", 99)

    def test_count(self, server):
        assert server.count("inbox") == 2
        assert server.count("empty") == 0

    def test_digest_lists_messages(self, server):
        digest = server.digest("inbox").decode()
        assert "caching draft" in digest
        assert "doug@parc" in digest

    def test_messages_timestamped_by_clock(self, kernel):
        server = MailServer(kernel.ctx.clock)
        kernel.ctx.clock.advance(123.0)
        message = server.deliver("inbox", "a@b", "s", b"")
        assert message.received_ms == 123.0


class TestMessageProvider:
    def test_serves_rendered_message(self, kernel, server):
        provider = MessageProvider(kernel.ctx, server, "inbox", 1)
        content = provider.fetch().content
        assert b"From: karin@parc" in content
        assert b"see attached" in content

    def test_messages_are_immutable(self, kernel, server):
        provider = MessageProvider(kernel.ctx, server, "inbox", 1)
        with pytest.raises(ProviderError):
            provider.store(b"tampered")

    def test_verifier_is_always_valid(self, kernel, server):
        provider = MessageProvider(kernel.ctx, server, "inbox", 1)
        verifier = provider.make_verifier()
        server.deliver("inbox", "x@y", "new mail", b"")
        assert verifier.run(0.0, b"").verdict is Verdict.VALID

    def test_cached_message_never_invalidated_by_new_mail(
        self, kernel, user, server
    ):
        provider = MessageProvider(kernel.ctx, server, "inbox", 1)
        reference = kernel.import_document(user, provider, "msg1")
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        cache.read(reference)
        server.deliver("inbox", "x@y", "more", b"")
        assert cache.read(reference).hit


class TestMailboxDigestProvider:
    def test_serves_digest(self, kernel, server):
        provider = MailboxDigestProvider(kernel.ctx, server, "inbox")
        assert b"Mailbox: inbox" in provider.fetch().content

    def test_digest_not_writable(self, kernel, server):
        provider = MailboxDigestProvider(kernel.ctx, server, "inbox")
        with pytest.raises(ProviderError):
            provider.store(b"x")

    def test_new_mail_invalidates_cached_digest(self, kernel, user, server):
        provider = MailboxDigestProvider(kernel.ctx, server, "inbox")
        reference = kernel.import_document(user, provider, "inbox-view")
        cache = DocumentCache(kernel, capacity_bytes=1 << 20)
        first = cache.read(reference)
        assert b"re: caching draft" in first.content
        assert cache.read(reference).hit
        server.deliver("inbox", "eyal@rice", "camera ready", b"done!")
        outcome = cache.read(reference)
        assert not outcome.hit        # verifier caught the append
        assert b"camera ready" in outcome.content
