"""Tests for the stream protocol, transforms and the stream chain."""

from __future__ import annotations

import pytest

from repro.errors import StreamClosedError
from repro.events.types import EventType
from repro.placeless.properties import ActiveProperty
from repro.providers.memory import MemoryProvider
from repro.streams.base import (
    BytesInputStream,
    BytesOutputStream,
    CountingInputStream,
    NullOutputStream,
    TeeOutputStream,
)
from repro.streams.chain import drain
from repro.streams.transforms import (
    BufferedTransformInputStream,
    BufferedTransformOutputStream,
    ChunkTransformInputStream,
    ChunkTransformOutputStream,
    LineTransformInputStream,
    text_transform,
)


class TestBytesStreams:
    def test_read_all(self):
        assert BytesInputStream(b"hello").read(-1) == b"hello"

    def test_read_in_chunks(self):
        stream = BytesInputStream(b"hello world")
        assert stream.read(5) == b"hello"
        assert stream.read(1) == b" "
        assert stream.read(100) == b"world"
        assert stream.read(10) == b""

    def test_read_zero(self):
        assert BytesInputStream(b"abc").read(0) == b""

    def test_remaining(self):
        stream = BytesInputStream(b"abcd")
        stream.read(1)
        assert stream.remaining == 3

    def test_read_after_close_raises(self):
        stream = BytesInputStream(b"abc")
        stream.close()
        with pytest.raises(StreamClosedError):
            stream.read(1)

    def test_context_manager_closes(self):
        with BytesInputStream(b"abc") as stream:
            stream.read(1)
        assert stream.closed

    def test_output_accumulates(self):
        out = BytesOutputStream()
        out.write(b"foo")
        out.write(b"bar")
        assert out.getvalue() == b"foobar"

    def test_output_write_returns_length(self):
        assert BytesOutputStream().write(b"abcd") == 4

    def test_write_after_close_raises(self):
        out = BytesOutputStream()
        out.close()
        with pytest.raises(StreamClosedError):
            out.write(b"x")

    def test_double_close_is_idempotent(self):
        out = BytesOutputStream()
        out.close()
        out.close()
        assert out.closed


class TestUtilityStreams:
    def test_counting_stream_counts(self):
        inner = BytesInputStream(b"x" * 100)
        counting = CountingInputStream(inner)
        counting.read(30)
        counting.read(30)
        counting.read(-1)
        assert counting.bytes_read == 100
        assert counting.read_calls >= 3

    def test_counting_close_propagates(self):
        inner = BytesInputStream(b"x")
        CountingInputStream(inner).close()
        assert inner.closed

    def test_tee_duplicates(self):
        first, second = BytesOutputStream(), BytesOutputStream()
        tee = TeeOutputStream(first, second)
        tee.write(b"data")
        tee.close()
        assert first.getvalue() == b"data"
        assert second.getvalue() == b"data"
        assert first.closed and second.closed

    def test_null_discards_and_counts(self):
        null = NullOutputStream()
        null.write(b"abc")
        null.write(b"de")
        assert null.bytes_discarded == 5


class TestTextTransform:
    def test_applies_to_text(self):
        transform = text_transform(str.upper)
        assert transform(b"hello") == b"HELLO"

    def test_passes_binary_through(self):
        transform = text_transform(str.upper)
        binary = bytes([0xFF, 0xFE, 0x80, 0x81])
        assert transform(binary) == binary


class TestBufferedTransforms:
    def test_input_transforms_whole_content(self):
        stream = BufferedTransformInputStream(
            BytesInputStream(b"abc def"), lambda data: data[::-1]
        )
        assert stream.read(-1) == b"fed cba"

    def test_input_chunked_reads_see_transformed(self):
        stream = BufferedTransformInputStream(
            BytesInputStream(b"hello"), text_transform(str.upper)
        )
        assert stream.read(2) == b"HE"
        assert stream.read(-1) == b"LLO"

    def test_output_transforms_at_close(self):
        sink = BytesOutputStream()
        stream = BufferedTransformOutputStream(sink, text_transform(str.upper))
        stream.write(b"hel")
        stream.write(b"lo")
        assert sink.getvalue() == b""  # nothing until close
        stream.close()
        assert sink.getvalue() == b"HELLO"
        assert sink.closed

    def test_output_empty_write_closes_cleanly(self):
        sink = BytesOutputStream()
        BufferedTransformOutputStream(sink, lambda d: d).close()
        assert sink.getvalue() == b""
        assert sink.closed


class TestChunkTransforms:
    def test_input_per_chunk(self):
        stream = ChunkTransformInputStream(
            BytesInputStream(b"abcdef"), lambda d: d.upper()
        )
        assert stream.read(3) == b"ABC"
        assert stream.read(-1) == b"DEF"

    def test_output_per_write(self):
        sink = BytesOutputStream()
        stream = ChunkTransformOutputStream(sink, lambda d: d.upper())
        stream.write(b"ab")
        assert sink.getvalue() == b"AB"  # immediate, unlike buffered
        stream.close()
        assert sink.closed


class TestLineTransform:
    def test_transforms_each_line(self):
        stream = LineTransformInputStream(
            BytesInputStream(b"one\ntwo\nthree"), lambda line: line.upper()
        )
        assert stream.read(-1) == b"ONE\nTWO\nTHREE"

    def test_partial_line_held_until_complete(self):
        # A transform that needs the whole line to be correct.
        def swap(line: bytes) -> bytes:
            return line[::-1]

        stream = LineTransformInputStream(
            BytesInputStream(b"abcdef\nxyz"), swap
        )
        result = b"".join(iter(lambda: stream.read(2), b""))
        assert result == b"fedcba\nzyx"

    def test_empty_stream(self):
        stream = LineTransformInputStream(BytesInputStream(b""), lambda l: l)
        assert stream.read(-1) == b""

    def test_trailing_newline_preserved(self):
        stream = LineTransformInputStream(
            BytesInputStream(b"a\nb\n"), lambda l: l * 2
        )
        assert stream.read(-1) == b"aa\nbb\n"


class _Appender(ActiveProperty):
    """Appends *tag* to what passes its read and write streams."""

    interest = frozenset(
        {EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM}
    )

    def __init__(self, tag: bytes):
        super().__init__(f"append{tag.decode()}")
        self.tag = tag

    def wrap_input(self, stream, event):
        return BufferedTransformInputStream(
            stream, lambda data: data + self.tag
        )

    def wrap_output(self, stream, event):
        return BufferedTransformOutputStream(
            stream, lambda data: data + self.tag
        )


def _chain(kernel, user, *tags: bytes):
    """A document whose reference carries one appender per tag, in order."""
    provider = MemoryProvider(kernel.ctx, b"doc")
    reference = kernel.import_document(user, provider, "doc")
    for tag in tags:
        reference.attach(_Appender(tag))
    return reference, provider


class TestChains:
    """The chain is the documents' wrap loops, in §2's order."""

    def test_input_chain_first_wrapper_transforms_first(self, kernel, user):
        # A is attached first, so it executes first (innermost) on the
        # read path: content, then -A, then -B.
        reference, _ = _chain(kernel, user, b"-A", b"-B")
        assert reference.read_content() == b"doc-A-B"

    def test_output_chain_first_wrapper_outermost(self, kernel, user):
        # On the write path the first wrapper executes first on the
        # written data (outermost): doc -> A -> B -> sink.
        reference, provider = _chain(kernel, user, b"-A", b"-B")
        reference.write_content(b"doc")
        assert provider.peek() == b"doc-A-B"

    def test_empty_chains_are_passthrough(self, kernel, user):
        reference, provider = _chain(kernel, user)
        assert reference.read_content() == b"doc"
        reference.write_content(b"y")
        assert provider.peek() == b"y"

    def test_drain_reads_everything_and_closes(self):
        stream = BytesInputStream(b"z" * 10_000)
        assert drain(stream, chunk_size=512) == b"z" * 10_000
        assert stream.closed
