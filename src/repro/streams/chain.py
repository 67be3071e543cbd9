"""Streams that go around a property's stream on a document path.

The chain itself is built where a document is read or written: the
wrap loops of :meth:`~repro.placeless.document.BaseDocument.begin_read`
/ :meth:`~repro.placeless.document.BaseDocument.begin_write` and
:meth:`~repro.placeless.reference.DocumentReference.open_input` /
:meth:`~repro.placeless.reference.DocumentReference.open_output` apply
each property's wrapper in §2's order (read: base, then reference;
write: reference, then base).

The firewall, byte-cap and corrupting streams here are what
:func:`repro.placeless.chain.interpose` — the one body in which
property stream code runs on a document path — puts around a
property's stream; this module knows bytes, not documents.
:func:`drain` is the application-shaped chunked reader.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BudgetExceededError, StreamError
from repro.streams.base import InputStream, OutputStream

__all__ = [
    "drain",
    "FirewallInputStream",
    "FirewallOutputStream",
    "ByteCapInputStream",
    "CorruptingInputStream",
    "CorruptingOutputStream",
]


def drain(source: InputStream, chunk_size: int = 4096) -> bytes:
    """Read *source* to end of stream in *chunk_size* pieces and close it.

    The application-shaped reader: an editor or ``repro.nfs`` pulls a
    file in pieces, which exercises the chunk and line transform paths
    that ``read(-1)`` — what :meth:`PlacelessKernel.read` issues —
    answers in one step.  Both deliver the same bytes.
    """
    pieces = []
    try:
        while True:
            chunk = source.read(chunk_size)
            if not chunk:
                break
            pieces.append(chunk)
    finally:
        source.close()
    return b"".join(pieces)


class FirewallInputStream(InputStream):
    """Exception firewall around a property's input stream.

    Reports the stream's fate to the containment guard: ``on_failure``
    once if any read raises (the error still propagates — a mid-stream
    failure cannot be skipped retroactively, but the breaker learns),
    ``on_success`` once when end of stream is reached cleanly — by an
    empty chunk or by a ``read(-1)``, which is forwarded inward whole.
    """

    def __init__(
        self,
        inner: InputStream,
        on_failure: Callable[[BaseException], None],
        on_success: Callable[[], None],
    ) -> None:
        super().__init__()
        self._inner = inner
        self._on_failure = on_failure
        self._on_success = on_success
        self._reported = False

    def _read_chunk(self, size: int) -> bytes:
        try:
            chunk = self._inner.read(size)
        except Exception as error:
            if not self._reported:
                self._reported = True
                self._on_failure(error)
            raise
        if (size < 0 or not chunk) and not self._reported:
            self._reported = True
            self._on_success()
        return chunk

    def _read_rest(self) -> bytes:
        return self._read_chunk(-1)

    def _on_close(self) -> None:
        self._inner.close()


class FirewallOutputStream(OutputStream):
    """Exception firewall around a property's output stream.

    ``on_failure`` fires once if any write raises (the error
    propagates); ``on_success`` fires at a clean close.
    """

    def __init__(
        self,
        inner: OutputStream,
        on_failure: Callable[[BaseException], None],
        on_success: Callable[[], None],
    ) -> None:
        super().__init__()
        self._inner = inner
        self._on_failure = on_failure
        self._on_success = on_success
        self._reported = False

    def _write_chunk(self, data: bytes) -> None:
        try:
            self._inner.write(data)
        except Exception as error:
            if not self._reported:
                self._reported = True
                self._on_failure(error)
            raise

    def _on_close(self) -> None:
        self._inner.close()
        if not self._reported:
            self._reported = True
            self._on_success()


class ByteCapInputStream(InputStream):
    """Enforces an execution budget's byte cap on a property stream.

    The cap exists to stop an over-producing property, so it does not
    forward ``read(-1)``: it keeps the default 64 KiB loop and checks
    the running total after every chunk — a runaway stream is cut off
    within one chunk of the cap instead of being materialised first.
    The cap trips on the same streams whatever the reader's chunking;
    how far the streams *beneath* had got by then depends on it.
    """

    def __init__(self, inner: InputStream, max_bytes: int, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._max_bytes = max_bytes
        self._site = site
        self.bytes_read = 0

    def _read_chunk(self, size: int) -> bytes:
        chunk = self._inner.read(size)
        self.bytes_read += len(chunk)
        if self.bytes_read > self._max_bytes:
            raise BudgetExceededError(
                f"{self._site}: streamed {self.bytes_read} bytes, "
                f"budget {self._max_bytes}"
            )
        return chunk

    def _on_close(self) -> None:
        self._inner.close()


class CorruptingInputStream(InputStream):
    """Injected *corrupt-output* misbehaviour on the read path.

    Delivers one garbled chunk, then fails mid-stream — a transformer
    whose output framing broke partway through, detectably.
    """

    def __init__(self, inner: InputStream, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._site = site
        self._delivered = False

    def _read_chunk(self, size: int) -> bytes:
        if self._delivered:
            raise StreamError(
                f"{self._site}: injected corrupt output mid-stream"
            )
        self._delivered = True
        chunk = self._inner.read(size)
        return bytes(byte ^ 0x5A for byte in chunk)

    def _on_close(self) -> None:
        self._inner.close()


class CorruptingOutputStream(OutputStream):
    """Injected *corrupt-output* misbehaviour on the write path.

    The first write fails with a stream error — the transformer mangled
    its output and downstream framing rejected it — so no corrupt bytes
    reach the bit-provider.
    """

    def __init__(self, inner: OutputStream, site: str) -> None:
        super().__init__()
        self._inner = inner
        self._site = site

    def _write_chunk(self, data: bytes) -> None:
        raise StreamError(
            f"{self._site}: injected corrupt output on write"
        )

    def _on_close(self) -> None:
        self._inner.close()
