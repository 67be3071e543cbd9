"""The bit-provider protocol.

A bit-provider is the active property that retrieves (and stores) a base
document's actual content.  For caching (§3) a fetch additionally yields:

* a **verifier** for the original source ("the bit-provider will most
  likely return a verifier for the original source of the document");
* the **retrieval cost**, which seeds the replacement cost the cache's
  Greedy-Dual-Size policy uses ("this value is initialized with the cost
  determined by the bit-provider to retrieve the original content from the
  storage repository");
* a **cacheability vote** (a live video source votes UNCACHEABLE).

Providers distinguish *in-band* stores (through Placeless, snoopable) from
*out-of-band* mutations (directly at the repository, invisible to
Placeless until a verifier catches them) — the dual update model of §3.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

from repro.content.signature import ContentSignature, sign
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.sim.context import SimContext
from repro.streams.base import BytesInputStream, InputStream

__all__ = ["ProviderFetch", "BitProvider"]


@dataclass
class ProviderFetch:
    """Everything one content retrieval yields."""

    content: bytes
    verifier: Verifier | None
    retrieval_cost_ms: float
    cacheability: Cacheability = Cacheability.UNRESTRICTED

    @property
    def size(self) -> int:
        """Size of the fetched content in bytes."""
        return len(self.content)


class BitProvider(abc.ABC):
    """Base class for all bit-providers.

    Subclasses implement :meth:`_retrieve` (bytes currently at the
    repository), :meth:`_store` (write bytes to the repository in-band)
    and :meth:`make_verifier`.  The base class handles latency charging
    and fetch bookkeeping.
    """

    #: Name in the latency model's repository table.
    repository_name: str = "memory"

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        self.fetch_count = 0
        self.store_count = 0
        #: Identity-keyed single-slot memo for :meth:`signature_of`.
        self._signature_memo: "tuple[bytes, ContentSignature] | None" = None
        #: Callbacks invoked after each in-band store, used by the kernel
        #: to snoop content updates (§3 consistency class 1, in-band).
        self._update_listeners: list[Callable[[bytes], None]] = []

    # -- content retrieval -------------------------------------------------

    def fetch(self) -> ProviderFetch:
        """Retrieve the current content, charging repository latency.

        When the context carries a :class:`~repro.faults.plan.FaultPlan`
        the fetch is gated through it first: scheduled outage windows
        raise :class:`~repro.errors.RepositoryOfflineError`, probability
        draws raise :class:`~repro.errors.ContentUnavailableError`.
        """
        if self.ctx.faults is not None:
            self.ctx.faults.check_fetch(self.repository_name)
        content = self._retrieve()
        cost = self.ctx.charge_repository(self.repository_name, len(content))
        self.fetch_count += 1
        return ProviderFetch(
            content=content,
            verifier=self.make_verifier(),
            retrieval_cost_ms=cost,
            cacheability=self.cacheability(),
        )

    def open_input(self) -> InputStream:
        """A stream over a fresh fetch (convenience for the read path)."""
        return BytesInputStream(self.fetch().content)

    def peek(self) -> bytes:
        """Current content *without* charging latency or counting a fetch.

        For assertions in tests and for verifier probes whose cost is
        accounted via the verifier's own ``cost_ms``.
        """
        return self._retrieve()

    def peek_signature(self) -> "ContentSignature":
        """Signature of the current content, without charging latency.

        Staleness probes (write-back ``is_stale``, the transform memo's
        source check) call this once per read.
        """
        return self.signature_of(self._retrieve())

    def signature_of(self, content: bytes) -> "ContentSignature":
        """``sign(content)`` through a single-slot memo keyed on the
        bytes object's identity, so the read path (``begin_read``) and
        the probes above hash each fetched blob once between them.

        The memo holds the object it keyed, so the identity cannot be
        reused and a memo hit is exact.  ``memory`` / ``filesystem`` /
        ``web`` / ``dms`` providers hand out one object until the
        content is replaced, and hit from the second call on;
        ``composite``, ``live`` and ``mail`` build a fresh object per
        retrieval, where a miss is a re-hash, never a wrong signature.
        """
        memo = self._signature_memo
        if memo is not None and memo[0] is content:
            return memo[1]
        signature = sign(content)
        self._signature_memo = (content, signature)
        return signature

    # -- content storage ---------------------------------------------------

    def store(self, content: bytes) -> float:
        """Write *content* in-band (through Placeless); returns the cost.

        In-band stores are snoopable: every registered update listener is
        invoked, which is how notifier properties learn about updates made
        through the system.

        An offline repository rejects writes too: fault-plan outage
        windows raise before anything is stored, which is what write-back
        flush retries exercise.
        """
        if self.ctx.faults is not None:
            self.ctx.faults.check_store(self.repository_name)
        cost = self.ctx.charge_repository(self.repository_name, len(content))
        self._store(bytes(content))
        self.store_count += 1
        for listener in list(self._update_listeners):
            listener(content)
        return cost

    def mutate_out_of_band(self, content: bytes) -> None:
        """Change the repository content *behind Placeless's back*.

        Models "updates to pages at a web-site or applications interacting
        with files directly through a file system" (§3): no snooping, no
        latency charged to the requesting client, only a verifier can
        detect the change.
        """
        self._store(bytes(content))

    def on_update(self, listener: Callable[[bytes], None]) -> None:
        """Register a snoop callback for in-band stores."""
        self._update_listeners.append(listener)

    # -- caching metadata ----------------------------------------------------

    def cacheability(self) -> Cacheability:
        """This provider's cacheability vote (default: unrestricted)."""
        return Cacheability.UNRESTRICTED

    def estimated_retrieval_cost_ms(self) -> float:
        """Cost of refetching the current content, without charging it.

        Replacement policies use this to value entries whose content is
        already cached.
        """
        return self.ctx.latency.repository_cost_ms(
            self.repository_name, len(self._retrieve())
        )

    @abc.abstractmethod
    def make_verifier(self) -> Verifier | None:
        """A verifier for the original source, or ``None`` if unverifiable."""

    # -- repository access (subclass responsibility) -------------------------

    @abc.abstractmethod
    def _retrieve(self) -> bytes:
        """Bytes currently held by the repository."""

    @abc.abstractmethod
    def _store(self, content: bytes) -> None:
        """Replace the repository's bytes."""
