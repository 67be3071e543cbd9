"""Live-feed bit-provider: content changes on every access.

"properties that change the content of the document or the bit provider
may deem a document uncacheable if the retrieved content changes each
time it is accessed, e.g., its source is live video" (§3).  The provider
synthesizes a fresh frame from the virtual clock (and a frame counter)
per retrieval and votes :attr:`Cacheability.UNCACHEABLE`.
"""

from __future__ import annotations

from typing import Callable

from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import AlwaysInvalidVerifier, Verifier
from repro.errors import ProviderError
from repro.providers.base import BitProvider
from repro.sim.context import SimContext

__all__ = ["LiveFeedProvider"]


def _default_frame(now_ms: float, frame_number: int) -> bytes:
    header = f"FRAME {frame_number} @ {now_ms:.3f}ms\n".encode()
    # A deterministic "video" payload whose bytes differ per frame.
    body = bytes((frame_number + offset) % 256 for offset in range(1024))
    return header + body


class LiveFeedProvider(BitProvider):
    """Synthesizes a new frame each retrieval; uncacheable by design."""

    repository_name = "live"

    def __init__(
        self,
        ctx: SimContext,
        frame_source: Callable[[float, int], bytes] | None = None,
    ) -> None:
        super().__init__(ctx)
        self._frame_source = frame_source or _default_frame
        self._frame_number = 0

    def cacheability(self) -> Cacheability:
        return Cacheability.UNCACHEABLE

    def make_verifier(self) -> Verifier:
        """Defensive: even if cached in error, every hit invalidates."""
        return AlwaysInvalidVerifier()

    def _retrieve(self) -> bytes:
        self._frame_number += 1
        return self._frame_source(self.ctx.clock.now_ms, self._frame_number)

    def _store(self, content: bytes) -> None:
        raise ProviderError("a live feed cannot be written")
