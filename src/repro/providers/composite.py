"""Composite bit-provider: documents composed of multiple sources.

"Verifiers can also serve documents that are composed of multiple
sources, like news summaries constructed from several web sites; in that
case, verifiers can check the consistency of each of the sources." (§3)

The composite fetches every part, combines them with a composer function
(default: concatenation with part headers), charges the sum of the parts'
repository costs, returns a :class:`CompositeVerifier` over the parts'
verifiers, and aggregates the parts' cacheability votes to the most
restrictive — a news summary with one live part is uncacheable.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import CompositeVerifier, Verifier
from repro.errors import ProviderError
from repro.providers.base import BitProvider, ProviderFetch
from repro.sim.context import SimContext

__all__ = ["CompositeProvider"]

Composer = Callable[[Sequence[bytes]], bytes]


def _default_composer(parts: Sequence[bytes]) -> bytes:
    sections = []
    for index, part in enumerate(parts):
        sections.append(f"=== source {index} ===\n".encode() + part)
    return b"\n".join(sections)


class CompositeProvider(BitProvider):
    """Combines the content of several child providers into one document."""

    repository_name = "memory"  # composition itself is local

    def __init__(
        self,
        ctx: SimContext,
        parts: Sequence[BitProvider],
        composer: Composer | None = None,
    ) -> None:
        super().__init__(ctx)
        if not parts:
            raise ProviderError("composite provider needs at least one part")
        self.parts = list(parts)
        self._composer = composer or _default_composer

    def fetch(self) -> ProviderFetch:
        """Fetch every part (each charging its own repository latency)."""
        fetches = [part.fetch() for part in self.parts]
        content = self._composer([f.content for f in fetches])
        self.fetch_count += 1
        part_verifiers = [f.verifier for f in fetches if f.verifier is not None]
        verifier: Verifier | None = None
        if part_verifiers:
            verifier = CompositeVerifier(part_verifiers)
        return ProviderFetch(
            content=content,
            verifier=verifier,
            retrieval_cost_ms=sum(f.retrieval_cost_ms for f in fetches),
            cacheability=Cacheability.aggregate(f.cacheability for f in fetches),
        )

    def make_verifier(self) -> Verifier | None:
        """Composite over the parts' fresh verifiers."""
        part_verifiers = [
            v for v in (part.make_verifier() for part in self.parts) if v
        ]
        if not part_verifiers:
            return None
        return CompositeVerifier(part_verifiers)

    def estimated_retrieval_cost_ms(self) -> float:
        return sum(part.estimated_retrieval_cost_ms() for part in self.parts)

    def _retrieve(self) -> bytes:
        return self._composer([part.peek() for part in self.parts])

    def _store(self, content: bytes) -> None:
        raise ProviderError("a composed document cannot be written directly")
