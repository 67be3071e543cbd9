"""The transform memoization plane: chain fingerprints + output memo.

The paper's per-(document, user) entries indirect through an MD5 content
signature, "enabling sharing of identical transformed content between
users" (§3) — but that sharing happens at *storage* time only: every
miss still re-executes the full active-property chain, even when another
user's miss already produced byte-identical output from the same source
bytes and the same chain.  Vcache makes the matching observation for
dynamic documents: cache the generator's output keyed by its *inputs*.

This module supplies the two data structures behind the pipeline's
memo step (``ReadPipeline._memo``):

* :class:`ChainFingerprint` (defined with the read plan in
  :mod:`repro.placeless.chain`, which caches one per reference as
  ``ReadPlan.fingerprint``) — a stable digest of one read path's
  property chain: every property's ``transform_signature()``, its
  read-path identity (code identity, name, version and whatever
  configuration shapes its output), composed *with its position*, so
  the same properties reordered fingerprint differently — invalidation
  class (c).  It is the same identity an entry records as its chain
  signature, so the memo and the L2 tier agree on which chains are
  one.
* :class:`TransformMemo` — a bounded LRU table mapping
  ``(source signature, chain fingerprint) → output signature`` plus the
  fill metadata needed to rebuild a cache entry.  A second user's miss
  with a recorded pair becomes a signature-only
  :meth:`~repro.content.store.ContentStore.adopt` instead of a provider
  fetch and a chain execution.  The table holds *no* content-store
  references of its own (refcount-aware by construction): a record whose
  output bytes have been evicted is detected at consult time and pruned.

A chain that is not ``ReadPlan.shareable`` (an access check or an
audit trail on it must see every read) never consults or records.

The four §3 invalidation classes map onto the memo as follows:

(a) **source changes** — records are keyed by the *current* source
    signature (probed at consult time), so a changed source simply never
    matches; stale keys age out of the LRU.
(b) **property add/delete/modify** — any change to the chain's members
    changes the composed fingerprint, so stale records never match.
(c) **property reordering** — fingerprints are position-indexed, so a
    permuted chain changes the key the same way.
(d) **external conditions (verifiers)** — a record carrying verifiers is
    re-verified before it is served (or bypassed entirely, per
    :class:`~repro.cache.policies.MemoPolicy`); a chain voting
    UNCACHEABLE records nothing, so the memo never serves it.

Recovery and containment integrate at the edges: an anti-entropy resync
purges the whole table (a resync exists precisely because cached state
is suspect), a cache crash discards it with the rest of volatile state,
and a tripped breaker on any chain property bypasses the memo for that
document (the recorded output was produced by code that is currently
quarantined).
"""

from __future__ import annotations

import typing
from collections import OrderedDict
from dataclasses import dataclass

from repro.cache.instrumentation import CounterProjection
from repro.content.signature import ContentSignature
from repro.contract.cacheability import Cacheability
from repro.contract.verifiers import Verifier
from repro.placeless.chain import ChainFingerprint

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cache.core import CacheCore

__all__ = [
    "MEMO_CAPACITY",
    "ChainFingerprint",
    "MemoRecord",
    "TransformMemo",
    "MemoStats",
    "MemoStatsProjection",
]

#: Records one cache's memo table holds (LRU beyond that); a cluster's
#: shared table holds this many per shard.
MEMO_CAPACITY = 1024


@dataclass(slots=True)
class MemoRecord:
    """One memoized ``(source, chain) → output`` mapping, plus the fill
    metadata a served entry is rebuilt from.  Only admitted outputs are
    recorded: an UNCACHEABLE vote leaves nothing to record."""

    source_signature: "ContentSignature"
    fingerprint: ChainFingerprint
    output_signature: "ContentSignature"
    size: int = 0
    cacheability: Cacheability = Cacheability.UNRESTRICTED
    verifiers: tuple["Verifier", ...] = ()
    replacement_cost_ms: float = 0.0
    chain_signature: tuple[str, ...] = ()
    pinned: bool = False

    @property
    def key(self) -> tuple["ContentSignature", ChainFingerprint]:
        """The memo-table key of this record."""
        return (self.source_signature, self.fingerprint)


class TransformMemo:
    """Bounded LRU ``(source signature, chain fingerprint) → record``.

    The table stores signatures, never bytes, and takes no content-store
    references: output bytes stay alive only while some cache entry
    still references them.  The consult path checks membership in the
    store before serving and prunes dead records, which is what keeps
    the memo refcount-aware without a second accounting scheme.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._records: OrderedDict[
            tuple["ContentSignature", ChainFingerprint], MemoRecord
        ] = OrderedDict()
        #: Records displaced by the LRU bound since construction.
        self.evictions = 0

    def lookup(
        self,
        source_signature: "ContentSignature",
        fingerprint: ChainFingerprint,
    ) -> MemoRecord | None:
        """The live record for the pair, freshened in LRU order."""
        record = self._records.get((source_signature, fingerprint))
        if record is not None:
            self._records.move_to_end((source_signature, fingerprint))
        return record

    def record(self, record: MemoRecord) -> int:
        """Insert (or refresh) *record*; returns LRU evictions made."""
        self._records[record.key] = record
        self._records.move_to_end(record.key)
        evicted = 0
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def discard(self, record: MemoRecord) -> None:
        """Forget one record (no-op when already gone or superseded).

        Identity-guarded: only removes the mapping when the table still
        holds *this* record object.  In an interleaved batch a
        read can decide to discard a record (dead output signature,
        failed verifier), suspend at a seam, and resume after another
        read has re-recorded a fresh record under the same key — a
        blind ``pop`` would drop the fresh record and silently lose its
        refcount bookkeeping (see DESIGN.md §3.3).
        """
        if self._records.get(record.key) is record:
            del self._records[record.key]

    def purge_all(self) -> int:
        """Drop every record; returns how many were dropped."""
        purged = len(self._records)
        self._records.clear()
        return purged

    def materialize(
        self, record: MemoRecord, core: "CacheCore"
    ) -> bytes | None:
        """Recover *record*'s output bytes when *core*'s store lacks them.

        The base memo is a strictly local plane: a record whose output
        bytes have left this cache's content store is dead, so the
        default answer is ``None`` and the consult path prunes the
        record.  Shared views (the cluster's cross-shard memo) override
        this to pull the bytes from a sibling store — charging the
        inter-cache link on the virtual clock — and seed them into
        *core*'s store via ``put_signed`` before returning them, making
        a remote shard's chain execution a local signature-only adopt.
        A successful materialization leaves exactly one store reference,
        which the serving entry takes over (the pipeline must not
        ``adopt`` again on this path).

        A cache with a durable L2 tier gets one local recovery source
        before giving up: demoted (or crash-surviving) bytes for the
        recorded output signature are read back off disk, CRC-gated,
        with the same single-reference contract.
        """
        if core.l2 is not None:
            return core.l2.materialize_bytes(record.output_signature)
        return None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(
        self, key: tuple["ContentSignature", ChainFingerprint]
    ) -> bool:
        return key in self._records


@dataclass(slots=True)
class MemoStats:
    """Counters for the memo plane, written beside each ``memo`` stage
    event.  ``RULES`` is the oracle the tests project (deprecated with
    :class:`~repro.cache.instrumentation.CounterProjection`)."""

    #: Misses served from the memo (each one is a provider fetch plus a
    #: full chain execution that did not happen).
    adoptions: int = 0
    #: The subset of adoptions whose output bytes had to be pulled from
    #: a sibling cache's store (cross-shard memo sharing); always zero
    #: for the strictly local base memo.
    imports: int = 0
    #: Consults that found no record and fell through to the fetch path.
    misses: int = 0
    #: Output records written at admission time.
    records: int = 0
    #: Consults skipped because a chain property's breaker is open.
    contained_bypasses: int = 0
    #: Records pruned because their output bytes left the content store.
    dead_drops: int = 0
    #: Records pruned because a verifier failed at serve time.
    verifier_drops: int = 0
    #: Records removed by purges (resync, crash, explicit).
    purged: int = 0
    #: Records displaced by the LRU capacity bound.
    evictions: int = 0

    @property
    def chain_executions_avoided(self) -> int:
        """The headline A15 metric: one adoption = one chain not run."""
        return self.adoptions

    @property
    def consults(self) -> int:
        """Total lookups that reached the memo table: each one adopts,
        misses, or finds a record and drops it."""
        return (
            self.adoptions + self.misses + self.dead_drops
            + self.verifier_drops
        )

    RULES: typing.ClassVar[typing.Mapping] = {
        ("memo", "adopted"): (("adoptions", 1), ("imports", "imported")),
        ("memo", "missed"): (("misses", 1),),
        ("memo", "recorded"): (("records", 1),),
        ("memo", "bypass-contained"): (("contained_bypasses", 1),),
        ("memo", "dropped-dead"): (("dead_drops", 1),),
        ("memo", "dropped-verifier"): (("verifier_drops", 1),),
        ("memo", "purged"): (("purged", "records"),),
        ("memo", "evicted"): (("evictions", "records"),),
    }


def MemoStatsProjection() -> CounterProjection:
    """:class:`CounterProjection` bound to a fresh :class:`MemoStats`.
    Deprecated: removed, like ``DocumentCache(fast_lane=)``, when a
    benchmark PR stops ``perfbench/probes.py`` constructing it."""
    return CounterProjection(MemoStats(), MemoStats.RULES)
