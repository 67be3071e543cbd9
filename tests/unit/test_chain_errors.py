"""Error-path tests for the firewall, byte-cap and corrupting streams.

The firewall streams must report a mid-stream failure exactly once and
a clean end of stream exactly once.
"""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError, StreamError
from repro.streams.base import BytesInputStream, BytesOutputStream
from repro.streams.chain import (
    ByteCapInputStream,
    CorruptingInputStream,
    CorruptingOutputStream,
    FirewallInputStream,
    FirewallOutputStream,
)


class RecordingInputStream(BytesInputStream):
    """Counts closes so leak checks can assert exactly one."""

    def __init__(self, data=b""):
        super().__init__(data)
        self.close_calls = 0

    def _on_close(self):
        self.close_calls += 1
        super()._on_close()


class ExplodingInputStream(BytesInputStream):
    """Raises on the first read (mid-stream failure)."""

    def _read_chunk(self, size):
        raise StreamError("exploding stream")


class TestFirewallInputStream:
    def test_reports_success_once_at_clean_eof(self):
        events = []
        stream = FirewallInputStream(
            BytesInputStream(b"abc"),
            on_failure=lambda e: events.append(("fail", e)),
            on_success=lambda: events.append(("ok",)),
        )
        assert stream.read(-1) == b"abc"
        assert stream.read(4) == b""  # EOF again: no double report
        assert events == [("ok",)]

    def test_reports_failure_once_and_reraises(self):
        events = []
        stream = FirewallInputStream(
            ExplodingInputStream(b""),
            on_failure=lambda e: events.append(type(e).__name__),
            on_success=lambda: events.append("ok"),
        )
        with pytest.raises(StreamError):
            stream.read(10)
        with pytest.raises(StreamError):
            stream.read(10)
        assert events == ["StreamError"]

    def test_close_propagates_to_inner(self):
        inner = RecordingInputStream(b"abc")
        FirewallInputStream(
            inner, on_failure=lambda e: None, on_success=lambda: None
        ).close()
        assert inner.close_calls == 1


class TestFirewallOutputStream:
    def test_reports_success_at_clean_close(self):
        events = []
        inner = BytesOutputStream()
        stream = FirewallOutputStream(
            inner,
            on_failure=lambda e: events.append("fail"),
            on_success=lambda: events.append("ok"),
        )
        stream.write(b"abc")
        assert events == []
        stream.close()
        assert events == ["ok"]
        assert inner.getvalue() == b"abc"

    def test_reports_failure_once_on_write_raise(self):
        events = []
        stream = FirewallOutputStream(
            CorruptingOutputStream(BytesOutputStream(), "site"),
            on_failure=lambda e: events.append(type(e).__name__),
            on_success=lambda: events.append("ok"),
        )
        with pytest.raises(StreamError):
            stream.write(b"abc")
        stream.close()  # a failed stream never reports success
        assert events == ["StreamError"]


class TestBudgetAndCorruptionStreams:
    def test_byte_cap_raises_past_the_budget(self):
        stream = ByteCapInputStream(BytesInputStream(b"x" * 10), 4, "site")
        assert stream.read(4) == b"xxxx"
        with pytest.raises(BudgetExceededError):
            stream.read(4)

    def test_corrupting_input_garbles_then_fails_mid_stream(self):
        stream = CorruptingInputStream(BytesInputStream(b"abc"), "site")
        garbled = stream.read(3)
        assert garbled != b"abc" and len(garbled) == 3
        with pytest.raises(StreamError):
            stream.read(3)

    def test_corrupting_output_rejects_the_first_write(self):
        inner = BytesOutputStream()
        stream = CorruptingOutputStream(inner, "site")
        with pytest.raises(StreamError):
            stream.write(b"abc")
        assert inner.getvalue() == b""  # nothing corrupt reached the sink
