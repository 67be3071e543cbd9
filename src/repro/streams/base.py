"""Stream protocol and concrete byte-buffer streams.

The protocol intentionally mirrors ``java.io``'s minimal surface — the
paper's properties only need ``read``/``write``/``close`` plus wrapping —
rather than Python's richer ``io`` ABCs, so the transform-chaining
semantics stay obvious.
"""

from __future__ import annotations

import abc

from repro.errors import StreamClosedError

__all__ = [
    "InputStream",
    "OutputStream",
    "BytesInputStream",
    "BytesOutputStream",
    "CountingInputStream",
    "TeeOutputStream",
    "NullOutputStream",
]


class InputStream(abc.ABC):
    """A readable byte stream.

    Subclasses implement :meth:`_read_chunk`; the base class handles
    closed-state checking and routes the ``read everything`` convention
    (``size < 0``) to :meth:`_read_rest`, which a stream that can
    produce its remainder in one step overrides.
    """

    def __init__(self) -> None:
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def read(self, size: int = -1) -> bytes:
        """Read up to *size* bytes; ``size < 0`` reads to end of stream.

        Returns ``b""`` exactly at end of stream.
        """
        if self._closed:
            raise StreamClosedError("read from closed stream")
        if size < 0:
            return self._read_rest()
        if size == 0:
            return b""
        return self._read_chunk(size)

    def close(self) -> None:
        """Close this stream and release any wrapped streams."""
        if not self._closed:
            self._closed = True
            self._on_close()

    def __enter__(self) -> "InputStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @abc.abstractmethod
    def _read_chunk(self, size: int) -> bytes:
        """Produce at most *size* bytes, ``b""`` at end of stream."""

    def _read_rest(self) -> bytes:
        """Everything not yet read (``b""`` at end of stream).

        The default pulls 64 KiB chunks.  An override must return the
        bytes — or raise the error — this loop would have: a transform
        runs it once over ``inner.read(-1)``, a checking wrapper
        forwards ``read(-1)`` inward and keeps its checks.
        """
        pieces = []
        while True:
            chunk = self._read_chunk(65536)
            if not chunk:
                break
            pieces.append(chunk)
        return b"".join(pieces)

    def _on_close(self) -> None:
        """Hook for subclasses to propagate close to wrapped streams."""


class OutputStream(abc.ABC):
    """A writable byte stream.

    Subclasses implement :meth:`_write_chunk`; :meth:`close` flushes any
    buffered transformation output downstream before closing.
    """

    def __init__(self) -> None:
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def write(self, data: bytes) -> int:
        """Write *data*; returns the number of bytes accepted."""
        if self._closed:
            raise StreamClosedError("write to closed stream")
        self._write_chunk(bytes(data))
        return len(data)

    def close(self) -> None:
        """Flush and close this stream (and any downstream streams)."""
        if not self._closed:
            self._closed = True
            self._on_close()

    def __enter__(self) -> "OutputStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @abc.abstractmethod
    def _write_chunk(self, data: bytes) -> None:
        """Accept *data*."""

    def _on_close(self) -> None:
        """Hook for subclasses to flush/propagate close downstream."""


class BytesInputStream(InputStream):
    """An input stream over an in-memory byte string."""

    def __init__(self, data: bytes) -> None:
        super().__init__()
        self._data = bytes(data)
        self._position = 0

    def _read_chunk(self, size: int) -> bytes:
        chunk = self._data[self._position : self._position + size]
        self._position += len(chunk)
        return chunk

    def _read_rest(self) -> bytes:
        rest = self._data[self._position :]
        self._position = len(self._data)
        return rest

    @property
    def remaining(self) -> int:
        """Bytes not yet read."""
        return len(self._data) - self._position


class BytesOutputStream(OutputStream):
    """An output stream accumulating into an in-memory buffer."""

    def __init__(self) -> None:
        super().__init__()
        self._pieces: list[bytes] = []

    def _write_chunk(self, data: bytes) -> None:
        self._pieces.append(data)

    def getvalue(self) -> bytes:
        """All bytes written so far (valid before or after close)."""
        return b"".join(self._pieces)


class CountingInputStream(InputStream):
    """Pass-through input stream that counts bytes and read calls.

    Used by properties (e.g. the read-audit trail) that must observe
    operations without touching content.
    """

    def __init__(self, inner: InputStream) -> None:
        super().__init__()
        self._inner = inner
        self.bytes_read = 0
        self.read_calls = 0

    def _read_chunk(self, size: int) -> bytes:
        self.read_calls += 1
        chunk = self._inner.read(size)
        self.bytes_read += len(chunk)
        return chunk

    def _read_rest(self) -> bytes:
        return self._read_chunk(-1)

    def _on_close(self) -> None:
        self._inner.close()


class TeeOutputStream(OutputStream):
    """Output stream duplicating writes to two downstream streams.

    Used by e.g. replication properties that keep a copy at a second site
    while the primary write proceeds.
    """

    def __init__(self, primary: OutputStream, secondary: OutputStream) -> None:
        super().__init__()
        self._primary = primary
        self._secondary = secondary

    def _write_chunk(self, data: bytes) -> None:
        self._primary.write(data)
        self._secondary.write(data)

    def _on_close(self) -> None:
        self._primary.close()
        self._secondary.close()


class NullOutputStream(OutputStream):
    """Discards everything written to it (used in event-only forwarding)."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_discarded = 0

    def _write_chunk(self, data: bytes) -> None:
        self.bytes_discarded += len(data)
