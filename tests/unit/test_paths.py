"""Tests for the read and write paths through base documents and references.

These pin down the §2 semantics: dispatch order (base before reference),
stream execution order (reads: base first; writes: reference first), and
the PathMeta accumulation the cache consumes.
"""

from __future__ import annotations

import pytest

from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import AlwaysValidVerifier
from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.providers.memory import MemoryProvider
from repro.streams.transforms import (
    BufferedTransformInputStream,
    BufferedTransformOutputStream,
)


class TaggingProperty(ActiveProperty):
    """Appends its tag on both read and write paths; records dispatches."""

    transforms_reads = True
    execution_cost_ms = 1.0

    def __init__(self, tag: str, log: list | None = None):
        super().__init__(f"tag-{tag}")
        self.tag = tag.encode()
        self.log = log if log is not None else []

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM}

    def handle(self, event: Event):
        self.log.append((self.name, event.type))

    def wrap_input(self, stream, event):
        return BufferedTransformInputStream(
            stream, lambda data: data + b"<" + self.tag
        )

    def wrap_output(self, stream, event):
        return BufferedTransformOutputStream(
            stream, lambda data: data + b">" + self.tag
        )


class VotingProperty(ActiveProperty):
    """Votes a fixed cacheability level and supplies a verifier."""

    def __init__(self, vote: Cacheability):
        super().__init__(f"vote-{vote.name}")
        self.vote = vote

    def events_of_interest(self):
        return {EventType.GET_INPUT_STREAM}

    def cacheability_vote(self):
        return self.vote

    def make_verifier(self):
        return AlwaysValidVerifier()


@pytest.fixture
def world(kernel, user, other_user):
    provider = MemoryProvider(kernel.ctx, b"SRC")
    base = kernel.create_document(user, provider, "doc")
    reference = kernel.space(user).add_reference(base)
    return kernel, base, reference, provider


class TestReadPath:
    def test_base_transforms_before_reference(self, world):
        kernel, base, reference, _ = world
        base.attach(TaggingProperty("base"))
        reference.attach(TaggingProperty("ref"))
        content = reference.read_content()
        # Base property executes first (closest to the provider).
        assert content == b"SRC<base<ref"

    def test_chain_order_within_one_site(self, world):
        kernel, base, reference, _ = world
        reference.attach(TaggingProperty("one"))
        reference.attach(TaggingProperty("two"))
        assert reference.read_content() == b"SRC<one<two"

    def test_reorder_changes_read_result(self, world):
        kernel, base, reference, _ = world
        one = TaggingProperty("one")
        two = TaggingProperty("two")
        reference.attach(one)
        reference.attach(two)
        reference.reorder([two.property_id, one.property_id])
        assert reference.read_content() == b"SRC<two<one"

    def test_dispatch_order_base_then_reference(self, world):
        kernel, base, reference, _ = world
        log: list = []
        base.attach(TaggingProperty("b", log))
        reference.attach(TaggingProperty("r", log))
        reference.read_content()
        read_events = [
            name for name, kind in log if kind is EventType.GET_INPUT_STREAM
        ]
        assert read_events == ["tag-b", "tag-r"]

    def test_meta_accumulates_costs_and_votes(self, world):
        kernel, base, reference, provider = world
        base.attach(TaggingProperty("b"))
        reference.attach(VotingProperty(Cacheability.CACHEABLE_WITH_EVENTS))
        result = reference.open_input()
        result.read_all()
        meta = result.meta
        # provider cost + 1ms tagging property (voting property costs too)
        assert meta.replacement_cost_ms > 1.0
        assert meta.cacheability is Cacheability.CACHEABLE_WITH_EVENTS
        # provider's verifier + voting property's verifier
        assert len(meta.verifiers) == 2
        assert meta.properties_executed == 2
        assert len(meta.chain_signature) == 2  # every chain property

    def test_meta_source_signature_set(self, world):
        kernel, base, reference, _ = world
        result = reference.open_input()
        result.read_all()
        assert result.meta.source_signature is not None

    def test_source_size_is_raw_size(self, world):
        kernel, base, reference, _ = world
        base.attach(TaggingProperty("grow"))
        result = reference.open_input()
        content = result.read_all()
        assert result.source_size == 3
        assert len(content) > 3

    def test_uncacheable_vote_aggregates(self, world):
        kernel, base, reference, _ = world
        base.attach(VotingProperty(Cacheability.UNCACHEABLE))
        reference.attach(VotingProperty(Cacheability.UNRESTRICTED))
        result = reference.open_input()
        result.read_all()
        assert result.meta.cacheability is Cacheability.UNCACHEABLE


class TestWritePath:
    def test_reference_transforms_before_base(self, world):
        kernel, base, reference, provider = world
        base.attach(TaggingProperty("base"))
        reference.attach(TaggingProperty("ref"))
        reference.write_content(b"NEW")
        # Reference property executes first on the write path.
        assert provider.peek() == b"NEW>ref>base"

    def test_write_chain_order_within_reference(self, world):
        kernel, base, reference, provider = world
        reference.attach(TaggingProperty("one"))
        reference.attach(TaggingProperty("two"))
        reference.write_content(b"W")
        assert provider.peek() == b"W>one>two"

    def test_write_dispatch_order_base_then_reference(self, world):
        kernel, base, reference, _ = world
        log: list = []
        base.attach(TaggingProperty("b", log))
        reference.attach(TaggingProperty("r", log))
        reference.write_content(b"X")
        write_events = [
            name for name, kind in log if kind is EventType.GET_OUTPUT_STREAM
        ]
        assert write_events == ["tag-b", "tag-r"]

    def test_sink_stores_only_on_close(self, world):
        kernel, base, reference, provider = world
        result = reference.open_output()
        result.stream.write(b"partial")
        assert provider.peek() == b"SRC"
        result.stream.close()
        assert provider.peek() == b"partial"
        assert result.sink.stored

    def test_content_updated_dispatched_on_store(self, world):
        kernel, base, reference, _ = world
        seen = []
        base.dispatcher.register(
            kernel.ctx.ids.property("watch"),
            {EventType.CONTENT_UPDATED},
            seen.append,
        )
        reference.write_content(b"X")
        assert len(seen) == 1
        assert seen[0].payload["size"] == 1


class TestKernelRouting:
    def test_read_charges_more_than_local(self, world):
        kernel, base, reference, _ = world
        outcome = kernel.read(reference)
        assert outcome.content == b"SRC"
        assert outcome.elapsed_ms > 1.0  # three network hops + repo

    def test_read_stats(self, world):
        kernel, base, reference, _ = world
        kernel.read(reference)
        kernel.read(reference)
        assert kernel.stats.reads == 2
        assert kernel.stats.bytes_read == 6

    def test_write_stats(self, world):
        kernel, base, reference, _ = world
        elapsed = kernel.write(reference, b"hello")
        assert elapsed > 0
        assert kernel.stats.writes == 1
        assert kernel.stats.bytes_written == 5

    def test_import_document_creates_reference(self, kernel, user):
        reference = kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"x"), "imported"
        )
        assert reference in kernel.space(user).references()

    def test_document_lookup(self, world):
        kernel, base, _, _ = world
        assert kernel.document(base.document_id) is base

    def test_unknown_document_raises(self, kernel):
        from repro.errors import DocumentNotFoundError
        from repro.ids import DocumentId

        with pytest.raises(DocumentNotFoundError):
            kernel.document(DocumentId("missing"))

    def test_unknown_user_space_raises(self, kernel):
        from repro.errors import SpaceNotFoundError
        from repro.ids import UserId

        with pytest.raises(SpaceNotFoundError):
            kernel.space(UserId("ghost"))

    def test_drop_reference(self, world):
        kernel, base, reference, _ = world
        owner_space = kernel.space(reference.owner)
        owner_space.drop_reference(reference.reference_id)
        assert len(owner_space) == 0
        assert reference not in base.references
