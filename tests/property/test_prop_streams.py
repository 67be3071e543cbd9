"""Property-based tests for the stream machinery.

Invariants: chunking must never change what a reader observes — a
whole read (``read(-1)``, what the kernel issues), a chunked drain of
any chunk size and any mix of the two deliver the same bytes or fail
the same way, through every stream class and every nesting of them;
paired transforms must round-trip arbitrary bytes under arbitrary
chunkings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BudgetExceededError, StreamError
from repro.properties.compression import CompressionProperty
from repro.properties.encryption import (
    EncryptionProperty,
    _DecryptingInputStream,
)
from repro.events.types import Event, EventType
from repro.ids import DocumentId
from repro.streams.base import (
    BytesInputStream,
    BytesOutputStream,
    CountingInputStream,
    InputStream,
)
from repro.streams.chain import (
    ByteCapInputStream,
    CorruptingInputStream,
    FirewallInputStream,
    drain,
)
from repro.streams.transforms import (
    BufferedTransformInputStream,
    ChunkTransformInputStream,
    LineTransformInputStream,
    text_transform,
)

payloads = st.binary(min_size=0, max_size=4096)
chunk_sizes = st.integers(min_value=1, max_value=257)


def read_chunked(stream, chunk_size: int) -> bytes:
    return b"".join(iter(lambda: stream.read(chunk_size), b""))


def dummy_event() -> Event:
    return Event(type=EventType.GET_INPUT_STREAM, document_id=DocumentId("d"))


class TestChunkingInvariance:
    @given(payloads, chunk_sizes)
    def test_bytes_input_chunking_is_lossless(self, data, chunk_size):
        assert read_chunked(BytesInputStream(data), chunk_size) == data

    @given(payloads, chunk_sizes)
    def test_buffered_transform_equals_whole_transform(self, data, chunk_size):
        stream = BufferedTransformInputStream(
            BytesInputStream(data), lambda d: d[::-1]
        )
        assert read_chunked(stream, chunk_size) == data[::-1]

    @given(payloads, chunk_sizes)
    def test_chunk_transform_of_bytewise_map_is_chunking_invariant(
        self, data, chunk_size
    ):
        def flip(d: bytes) -> bytes:
            return bytes(b ^ 0xFF for b in d)

        stream = ChunkTransformInputStream(BytesInputStream(data), flip)
        assert read_chunked(stream, chunk_size) == flip(data)

    @given(
        st.lists(st.binary(min_size=0, max_size=50), max_size=20),
        chunk_sizes,
    )
    def test_line_transform_sees_whole_lines(self, lines, chunk_size):
        # Filter out embedded newlines so "lines" are genuine.
        lines = [line.replace(b"\n", b"x") for line in lines]
        data = b"\n".join(lines)
        seen: list[bytes] = []

        def record(line: bytes) -> bytes:
            seen.append(line)
            return line

        stream = LineTransformInputStream(BytesInputStream(data), record)
        assert read_chunked(stream, chunk_size) == data
        # Every observed "line" is one of the original lines.
        for line in seen:
            assert line in lines


# -- whole ≡ chunked, for every stream and every nesting -------------------------


class RecordingSource(BytesInputStream):
    """Counts closes, so leak checks can assert exactly one."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.close_calls = 0

    def _on_close(self) -> None:
        self.close_calls += 1


class FailingSource(InputStream):
    """Serves *fail_after* bytes of *data*, then raises mid-stream."""

    def __init__(self, data: bytes, fail_after: int) -> None:
        super().__init__()
        self._left = data[:fail_after]
        self.close_calls = 0

    def _read_chunk(self, size: int) -> bytes:
        if not self._left:
            raise StreamError("source failed mid-stream")
        chunk, self._left = self._left[:size], self._left[size:]
        return chunk

    def _on_close(self) -> None:
        self.close_calls += 1


def _flip(data: bytes) -> bytes:
    return bytes(byte ^ 0xFF for byte in data)


def _numbering():
    """A line transform that is *not* newline-transparent: stateful,
    and ``t(b"") != b""`` — a trailing empty piece would show."""
    count = 0

    def number(line: bytes) -> bytes:
        nonlocal count
        count += 1
        return b"%d:" % count + line

    return number


#: Layers that never fail: name → factory(inner, stack) -> stream.
TRANSPARENT_LAYERS = {
    "buffered": lambda inner, stack: BufferedTransformInputStream(
        inner, lambda data: data[::-1] + b"!"
    ),
    "buffered-text": lambda inner, stack: BufferedTransformInputStream(
        inner, text_transform(str.swapcase)
    ),
    "chunk": lambda inner, stack: ChunkTransformInputStream(inner, _flip),
    "line": lambda inner, stack: LineTransformInputStream(
        inner, lambda line: line[::-1]
    ),
    "line-numbering": lambda inner, stack: LineTransformInputStream(
        inner, _numbering()
    ),
    "line-transparent": lambda inner, stack: LineTransformInputStream(
        inner, text_transform(str.upper, newline_transparent=True)
    ),
    "decrypt": lambda inner, stack: _DecryptingInputStream(inner, b"key"),
    "counting": lambda inner, stack: stack.counting(inner),
    "firewall": lambda inner, stack: stack.firewall(inner),
    "bytecap": lambda inner, stack: ByteCapInputStream(inner, 10**9, "site"),
}
#: Layers that fail the read (at most one per stack — two faults race,
#: and which wins depends on the chunking even without a whole read).
FAULT_LAYERS = {
    "corrupting": lambda inner, stack: CorruptingInputStream(inner, "site"),
    "tight-bytecap": lambda inner, stack: ByteCapInputStream(inner, 7, "site"),
}


class Stack:
    """One freshly built nesting plus the probes that observe it."""

    def __init__(self, data, layers, fault, fault_at, source_fails_after=None):
        self.source = (
            RecordingSource(data) if source_fails_after is None
            else FailingSource(data, source_fails_after)
        )
        self.layers: list = []
        self.firewall_events: list[tuple[int, list[str]]] = []
        self.countings: list[CountingInputStream] = []
        names = list(layers)
        self.fault_index = None
        if fault is not None:
            self.fault_index = min(fault_at, len(names))
            names.insert(self.fault_index, fault)
        stream = self.source
        for index, name in enumerate(names):
            self._index = index
            factory = TRANSPARENT_LAYERS.get(name) or FAULT_LAYERS[name]
            stream = factory(stream, self)
            self.layers.append(stream)
        self.stream = stream

    def firewall(self, inner):
        events: list[str] = []
        self.firewall_events.append((self._index, events))
        return FirewallInputStream(
            inner,
            on_failure=lambda error: events.append("fail"),
            on_success=lambda: events.append("ok"),
        )

    def counting(self, inner):
        stream = CountingInputStream(inner)
        self.countings.append(stream)
        return stream

    def observe(self, read):
        """Run *read* on the stack, close it, and report what happened."""
        try:
            try:
                content = read(self.stream)
            finally:
                self.stream.close()
        except (StreamError, BudgetExceededError) as error:
            outcome = ("error", type(error).__name__)
        else:
            passed = [counting.bytes_read for counting in self.countings]
            outcome = ("ok", content, passed)
        assert self.source.close_calls == 1
        assert self.source.closed
        assert all(layer.closed for layer in self.layers)
        for index, events in self.firewall_events:
            assert len(events) <= 1, "a firewall reports its stream once"
            above_the_fault = (
                outcome[0] == "error"
                and (self.fault_index is None or index > self.fault_index)
            )
            if above_the_fault:
                assert events == ["fail"]
            elif outcome[0] == "ok":
                assert events == ["ok"]
            else:  # below it: end of stream may not have been reached
                assert events in ([], ["ok"])
        return outcome


text_payloads = st.lists(
    st.text(alphabet="abcXYZ é\t", max_size=12), max_size=12
).map(lambda lines: "\n".join(lines).encode("utf-8"))
stack_payloads = st.one_of(
    st.binary(max_size=600),
    text_payloads,
    # Decodable and undecodable lines side by side.
    st.lists(
        st.one_of(st.binary(max_size=10), st.just(b"plain text")), max_size=10
    ).map(b"\n".join),
    st.binary(min_size=4000, max_size=9000),
)
layer_names = st.lists(
    st.sampled_from(sorted(TRANSPARENT_LAYERS)), max_size=5
)
faults = st.one_of(st.none(), st.sampled_from(sorted(FAULT_LAYERS)))


class TestWholeReadEqualsChunkedRead:
    """``read(-1)`` ≡ ``drain(k)`` ≡ chunked reads then ``read(-1)``."""

    def _three_ways(self, build, chunk_size, chunked_reads):
        def mixed(stream):
            pieces = []
            for _ in range(chunked_reads):
                pieces.append(stream.read(chunk_size))
                if not pieces[-1]:  # end of stream: a reader stops here
                    return b"".join(pieces)
            pieces.append(stream.read(-1))
            return b"".join(pieces)

        def drained(stream):
            return drain(stream, chunk_size)

        whole = build().observe(lambda stream: stream.read(-1))
        assert build().observe(drained) == whole
        assert build().observe(mixed) == whole
        return whole

    @given(
        stack_payloads,
        st.sampled_from(sorted(TRANSPARENT_LAYERS) + sorted(FAULT_LAYERS)),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_stream_class_alone(self, data, name, chunk_size, reads):
        layers, fault = ([], name) if name in FAULT_LAYERS else ([name], None)
        outcome = self._three_ways(
            lambda: Stack(data, layers, fault, 0), chunk_size, reads
        )
        if name in TRANSPARENT_LAYERS:
            assert outcome[0] == "ok"
        if name == "tight-bytecap":
            # The cap trips on the same inputs however they are read.
            assert (outcome[0] == "error") == (len(data) > 7)
        if name == "corrupting":
            assert (outcome[0] == "error") == (len(data) > 0)

    @given(
        stack_payloads,
        layer_names,
        faults,
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_stacks(
        self, data, layers, fault, fault_at, chunk_size, reads
    ):
        self._three_ways(
            lambda: Stack(data, layers, fault, fault_at), chunk_size, reads
        )

    @given(
        st.binary(min_size=1, max_size=600),
        layer_names,
        st.integers(min_value=0, max_value=600),
        st.integers(min_value=1, max_value=700),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_source_failing_mid_stream_fails_every_way(
        self, data, layers, fail_after, chunk_size, reads
    ):
        fail_after = min(fail_after, len(data) - 1)
        outcome = self._three_ways(
            lambda: Stack(data, layers, None, 0, fail_after),
            chunk_size,
            reads,
        )
        assert outcome == ("error", "StreamError")

    @given(
        st.lists(st.binary(max_size=20).map(lambda b: b.replace(b"\n", b"x")),
                 max_size=12),
        st.booleans(),
        st.integers(min_value=1, max_value=300),
    )
    def test_a_non_transparent_line_transform_still_runs_per_line(
        self, lines, trailing_newline, chunk_size
    ):
        data = b"\n".join(lines) + (b"\n" if trailing_newline and lines else b"")
        pieces = data.split(b"\n")
        tail = pieces.pop()
        expected = b"".join(
            b"%d:" % (n + 1) + line + b"\n" for n, line in enumerate(pieces)
        )
        if tail:  # never applied to a trailing empty piece
            expected += b"%d:" % (len(pieces) + 1) + tail
        whole = LineTransformInputStream(BytesInputStream(data), _numbering())
        assert whole.read(-1) == expected
        chunked = LineTransformInputStream(BytesInputStream(data), _numbering())
        assert drain(chunked, chunk_size) == expected


    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=10).map(lambda b: b.replace(b"\n", b"x")),
                st.sampled_from([b"plain text", b"caf\xc3\xa9", b"\xff\xfe", b""]),
            ),
            max_size=12,
        ),
        st.integers(min_value=1, max_value=300),
    )
    def test_a_transparent_text_transform_equals_its_per_line_application(
        self, lines, chunk_size
    ):
        # Many lines per call, yet an undecodable line passes through
        # alone and its decodable neighbours are still transformed.
        per_line = text_transform(str.upper)
        expected = b"\n".join(map(per_line, lines))
        data = b"\n".join(lines)

        def build():
            return LineTransformInputStream(
                BytesInputStream(data),
                text_transform(str.upper, newline_transparent=True),
            )

        assert build().read(-1) == expected
        assert drain(build(), chunk_size) == expected


    def test_an_outer_cap_trip_finds_the_inner_stream_where_the_chunking_left_it(
        self,
    ):
        # Firewall(ByteCap(line)) beneath a second line transform whose
        # own cap trips.  The outer firewall reports the failure however
        # the stack is read; whether the inner stream had already ended
        # cleanly depends on how much each pull asked of it — as it did
        # for ``drain(stream, k)`` before there was a whole read.
        data = b"a a a a\n" * 600  # 4 800 bytes; doubled, over the cap

        def build():
            events: dict[str, list[str]] = {"inner": [], "outer": []}

            def firewall(name, stream):
                return FirewallInputStream(
                    stream,
                    on_failure=lambda error: events[name].append("fail"),
                    on_success=lambda: events[name].append("ok"),
                )

            inner = firewall("inner", ByteCapInputStream(
                LineTransformInputStream(BytesInputStream(data), bytes.upper),
                6000, "inner",
            ))
            outer = firewall("outer", ByteCapInputStream(
                LineTransformInputStream(inner, lambda line: line + line),
                6000, "outer",
            ))
            return outer, events

        whole, events = build()
        with pytest.raises(BudgetExceededError):
            whole.read(-1)
        # One 64 KiB pull took the inner stream to its end first.
        assert events == {"inner": ["ok"], "outer": ["fail"]}

        chunked, events = build()
        with pytest.raises(BudgetExceededError):
            drain(chunked, 4096)
        # The cap tripped on the second chunk, 4 096 source bytes in.
        assert events == {"inner": [], "outer": ["fail"]}

    def test_a_byte_cap_bounds_what_a_whole_read_pulls(self):
        source = BytesInputStream(b"x" * 1_000_000)
        capped = ByteCapInputStream(CountingInputStream(source), 1000, "site")
        with pytest.raises(BudgetExceededError):
            capped.read(-1)
        assert source.remaining >= 1_000_000 - 65536


class TestPairedTransformRoundtrips:
    @given(payloads, chunk_sizes, chunk_sizes, st.binary(min_size=1, max_size=32))
    @settings(max_examples=50)
    def test_encryption_roundtrip_any_chunking(
        self, data, write_chunk, read_chunk, key
    ):
        prop = EncryptionProperty(key)
        sink = BytesOutputStream()
        out = prop.wrap_output(sink, dummy_event())
        for start in range(0, len(data), write_chunk):
            out.write(data[start : start + write_chunk])
        out.close()
        ciphertext = sink.getvalue()
        # (No ciphertext != plaintext assertion: for short inputs the XOR
        # keystream can legitimately coincide with the plaintext.)
        stream = prop.wrap_input(BytesInputStream(ciphertext), dummy_event())
        assert read_chunked(stream, read_chunk) == data

    @given(payloads, chunk_sizes)
    @settings(max_examples=50)
    def test_compression_roundtrip(self, data, read_chunk):
        prop = CompressionProperty()
        sink = BytesOutputStream()
        out = prop.wrap_output(sink, dummy_event())
        out.write(data)
        out.close()
        stream = prop.wrap_input(
            BytesInputStream(sink.getvalue()), dummy_event()
        )
        assert read_chunked(stream, read_chunk) == data

    @given(payloads, st.binary(min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_encryption_is_length_preserving(self, data, key):
        prop = EncryptionProperty(key)
        sink = BytesOutputStream()
        out = prop.wrap_output(sink, dummy_event())
        out.write(data)
        out.close()
        assert len(sink.getvalue()) == len(data)
