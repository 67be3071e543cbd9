"""Web bit-provider over a simulated HTTP origin.

Table 1's documents come from ``parcweb`` (the PARC intranet server) and
``www`` hosts; §3 notes "web-servers so far manage consistency only based
on a time-to-live (TTL) invalidation scheme", and the dual update model
(HTTP PUT vs. pages changing behind the server's back) is called out
explicitly.  The simulated origin models exactly those pieces: pages with
content, a per-page TTL, and a last-modified timestamp; PUTs through the
provider are in-band, author edits at the origin are out-of-band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contract.verifiers import TTLVerifier, Verifier
from repro.errors import ContentUnavailableError
from repro.providers.base import BitProvider
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext

__all__ = ["PageRecord", "WebOrigin", "WebProvider"]

#: Default TTL an origin assigns when a page declares none (1 minute, a
#: common 1999 proxy heuristic).
DEFAULT_TTL_MS = 60_000.0


@dataclass
class PageRecord:
    """One page's state at the origin."""

    content: bytes
    ttl_ms: float
    last_modified_ms: float
    gets: int = 0
    puts: int = 0


@dataclass
class WebOrigin:
    """A simulated HTTP origin server hosting pages by URL path."""

    clock: VirtualClock
    host: str = "www"
    _pages: dict[str, PageRecord] = field(default_factory=dict)

    def publish(
        self, url: str, content: bytes, ttl_ms: float = DEFAULT_TTL_MS
    ) -> None:
        """Create or replace a page (an authoring-side, out-of-band act)."""
        existing = self._pages.get(url)
        if existing is None:
            self._pages[url] = PageRecord(
                content=bytes(content),
                ttl_ms=ttl_ms,
                last_modified_ms=self.clock.now_ms,
            )
        else:
            existing.content = bytes(content)
            existing.ttl_ms = ttl_ms
            existing.last_modified_ms = self.clock.now_ms

    def get(self, url: str) -> PageRecord:
        """HTTP GET: the page record (caller reads content and TTL)."""
        record = self._page(url)
        record.gets += 1
        return record

    def put(self, url: str, content: bytes) -> None:
        """HTTP PUT: replace page content, refreshing last-modified."""
        record = self._pages.get(url)
        if record is None:
            self.publish(url, content)
            record = self._pages[url]
        else:
            record.content = bytes(content)
            record.last_modified_ms = self.clock.now_ms
        record.puts += 1

    def author_edit(self, url: str, content: bytes) -> None:
        """Change a page without an HTTP request (out-of-band update)."""
        record = self._page(url)
        record.content = bytes(content)
        record.last_modified_ms = self.clock.now_ms

    def urls(self) -> list[str]:
        """All published URL paths, sorted."""
        return sorted(self._pages)

    def _page(self, url: str) -> PageRecord:
        try:
            return self._pages[url]
        except KeyError:
            raise ContentUnavailableError(
                f"404 at {self.host}: {url}"
            ) from None


class WebProvider(BitProvider):
    """Serves one URL from a :class:`WebOrigin`.

    The verifier implements "the TTL timeout as specified in the HTTP
    response" (§3): it is issued at fetch time with the page's TTL.
    """

    def __init__(self, ctx: SimContext, origin: WebOrigin, url: str) -> None:
        super().__init__(ctx)
        self.origin = origin
        self.url = url

    @property
    def repository_name(self) -> str:  # type: ignore[override]
        """The latency-table entry is the origin host (parcweb vs. www)."""
        return self.origin.host

    def make_verifier(self) -> Verifier:
        record = self.origin.get(self.url)
        return TTLVerifier(
            issued_ms=self.ctx.clock.now_ms,
            ttl_ms=record.ttl_ms,
        )

    def _retrieve(self) -> bytes:
        return self.origin.get(self.url).content

    def _store(self, content: bytes) -> None:
        self.origin.put(self.url, content)
