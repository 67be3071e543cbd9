"""In-process memory bit-provider.

The simplest provider: content lives in the provider object itself.  Used
for documents created directly inside Placeless and heavily in tests.
Its verifier is a generation check — every store bumps a generation
counter, so out-of-band mutations are still detectable.
"""

from __future__ import annotations

from repro.contract.verifiers import ModificationTimeVerifier, Verifier
from repro.providers.base import BitProvider
from repro.sim.context import SimContext

__all__ = ["MemoryProvider"]


class MemoryProvider(BitProvider):
    """Holds content in memory; the cheapest repository in the model."""

    repository_name = "memory"

    def __init__(self, ctx: SimContext, content: bytes = b"") -> None:
        super().__init__(ctx)
        self._content = bytes(content)
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotone store counter, used as a pseudo-mtime."""
        return self._generation

    def make_verifier(self) -> Verifier:
        return ModificationTimeVerifier(
            probe=lambda: float(self._generation),
            observed_mtime_ms=float(self._generation),
            cost_ms=0.01,
        )

    def _retrieve(self) -> bytes:
        return self._content

    def _store(self, content: bytes) -> None:
        self._content = content
        self._generation += 1
