"""Paired compress-on-write / decompress-on-read property.

Like :mod:`repro.properties.encryption`, a paired transform: the
repository stores zlib-compressed bytes while applications see plaintext.
Unlike the XOR cipher, zlib is *not* chunk-local, so both directions use
the buffered transform streams — which exercises the whole-content path
of the stream machinery.
"""

from __future__ import annotations

import zlib

from repro.events.types import Event, EventType
from repro.placeless.properties import ActiveProperty
from repro.streams.base import InputStream, OutputStream
from repro.streams.transforms import (
    BufferedTransformInputStream,
    BufferedTransformOutputStream,
)

__all__ = ["CompressionProperty"]


class CompressionProperty(ActiveProperty):
    """Stores compressed content, serves decompressed content."""

    execution_cost_ms = 0.3
    transforms_reads = True
    interest = frozenset({EventType.GET_INPUT_STREAM, EventType.GET_OUTPUT_STREAM})

    def __init__(
        self, level: int = 6, name: str = "compress-at-rest", version: int = 1
    ) -> None:
        super().__init__(name, version)
        if not 0 <= level <= 9:
            raise ValueError(f"zlib level must be 0..9: {level}")
        self.level = level

    def _decompress(self, data: bytes) -> bytes:
        if not data:
            return b""
        return zlib.decompress(data)

    def wrap_input(self, stream: InputStream, event: Event) -> InputStream:
        return BufferedTransformInputStream(stream, self._decompress)

    def wrap_output(self, stream: OutputStream, event: Event) -> OutputStream:
        return BufferedTransformOutputStream(
            stream, lambda data: zlib.compress(data, self.level)
        )

    def transform_signature(self) -> str:
        return f"compress/{self.name}/v{self.version}/zlib{self.level}"
