"""Cache entries: per-(document, user) versions indirecting via signatures.

"Our current implementation tags content with both a document identifier
and the user to whom the version of the document belongs. ... content
entries could be shared if the cache maps a pair of document and user
identifiers to a content signature (e.g., MD5 hash) and in turn these
signatures map to the actual content." (§3)

The entry holds the *signature*, not the bytes; the bytes live in the
cache's :class:`~repro.content.store.ContentStore`, shared between all
entries whose transformed content is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.content.signature import ContentSignature
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.ids import DocumentId, ReferenceId, UserId
from repro.placeless.reference import DocumentReference

__all__ = ["EntryKey", "CacheEntry"]


class EntryKey(NamedTuple):
    """The (document, user) pair identifying a personalized cached version."""

    document_id: DocumentId
    user_id: UserId

    @classmethod
    def for_reference(cls, reference: "DocumentReference") -> "EntryKey":
        """The canonical key for a document reference.

        Every site that needs a (document, user) key — the manager, the
        pipelines, notifier/invalidation matching, stats
        attribution — must construct it through here, so the key shape
        is defined exactly once.

        The key is interned on the reference: both halves are fixed at
        reference construction, and at scale-workload read rates the
        tuple allocation and repeated attribute walk dominate the hot
        path (the interned key also hashes/compares by identity-cached
        ``NamedTuple`` contents, so dict probes stay cheap).
        """
        key = getattr(reference, "_entry_key", None)
        if key is None:
            key = cls(reference.base.document_id, reference.owner)
            reference._entry_key = key  # type: ignore[attr-defined]
        return key

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.document_id}, {self.user_id})"


@dataclass(slots=True)
class CacheEntry:
    """One user's cached version of one document's transformed content.

    The §3 record: the content signature plus the verifiers,
    cacheability vote and replacement cost the read path returned.  An
    invalidated entry is not kept around — ``CacheCore.drop`` removes
    it — and a write-back's pending bytes live in ``CacheCore.dirty``,
    never on the entry (the write drops it).  Replacement policies keep
    their per-entry bookkeeping in their own tables, keyed by
    :class:`EntryKey`.
    """

    key: EntryKey
    signature: ContentSignature
    size: int
    cacheability: Cacheability
    verifiers: list[Verifier]
    #: Replacement cost accumulated along the read path (bit-provider
    #: retrieval cost + property execution times + QoS inflation).
    replacement_cost_ms: float
    #: Ordered transform signatures of the chain that produced the bytes.
    chain_signature: tuple[str, ...]
    #: The reference the content was read through (needed to forward
    #: operation events and to refill on misses).
    reference_id: ReferenceId | None
    created_at_ms: float
    last_access_ms: float
    access_count: int = 1
    #: Pinned entries are never chosen as replacement victims (§5's
    #: "always available" QoS requirement).
    pinned: bool = False
    #: Signature of the raw source bytes the version was produced from
    #: (``None`` when the read path could not supply one): what resync,
    #: L2 demotion and staleness accounting compare the live source to.
    source_signature: ContentSignature | None = None
    #: Filled by a collection prefetch and not yet read on demand; the
    #: first hit counts as a prefetched hit and clears it.
    prefetched: bool = False

    @property
    def document_id(self) -> DocumentId:
        """The document half of the key."""
        return self.key.document_id

    @property
    def user_id(self) -> UserId:
        """The user half of the key."""
        return self.key.user_id

    def touch(self, now_ms: float) -> None:
        """Record one access."""
        self.last_access_ms = now_ms
        self.access_count += 1
