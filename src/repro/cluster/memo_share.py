"""Cross-shard transform-memo sharing.

The A15 memo plane makes a second user's cold miss a signature-only
adopt — but only within one cache, because a
:class:`~repro.cache.memo.TransformMemo` record is only servable while
its output bytes are in *that* cache's content store.  In a cluster,
shard A's chain execution should save shard B's users too.

:class:`SharedTransformMemo` is the cluster's answer: one memo table
installed (via :class:`~repro.cache.manager.DocumentCache`'s ``memo``
injection seam) as every shard's ``core.memo``.  Records written by any
shard's admission path are visible to every shard's consult path — the
table is the gossip, fully propagated by construction.  The one gap is
bytes: a record recorded by shard A maps to an output signature that
lives in A's store, not B's.  The pipeline's
:meth:`~repro.cache.memo.TransformMemo.materialize` hook closes it —
when B's consult finds the signature missing locally, this class finds
a sibling store holding the bytes, charges the inter-shard link on the
virtual clock (per-pair costs from
:class:`~repro.sim.topology.ClusterTopology`), and seeds the bytes into
B's store with ``put_signed``; B's serving entry takes over that single
reference, so refcounts stay exact and eviction works unchanged.

Purges stay conservative: one shard's crash or anti-entropy resync
purges the *shared* table, because every record is under the same
suspicion no matter which shard wrote it.  Records are in any case
self-validating at consult time (source-signature probe, fingerprint
keying, verifier re-runs), so a purge costs re-execution, never
correctness.
"""

from __future__ import annotations


from repro.cache.core import CacheCore
from repro.cache.memo import MemoRecord, TransformMemo
from repro.errors import CacheError
from repro.sim.topology import ClusterTopology

__all__ = ["SharedTransformMemo"]


class SharedTransformMemo(TransformMemo):
    """One memo table shared by every shard of a cluster."""

    def __init__(
        self, capacity: int, topology: "ClusterTopology | None" = None
    ) -> None:
        super().__init__(capacity)
        self._topology = topology
        self._cores: dict[str, "CacheCore"] = {}
        self._names: dict[int, str] = {}
        #: Cross-shard imports served (each is a chain execution some
        #: shard avoided that a private memo could not have).
        self.imports = 0
        #: Bytes moved over shard links by imports.
        self.import_bytes = 0
        #: Consults where no sibling store held the bytes either.
        self.import_misses = 0

    def attach(self, name: str, core: "CacheCore") -> None:
        """Register one shard's core under its shard name."""
        if name in self._cores:
            raise CacheError(f"duplicate shard attached: {name!r}")
        self._cores[name] = core
        self._names[id(core)] = name

    def detach(self, name: str) -> None:
        """Forget a shard (it left the cluster); imports skip it."""
        core = self._cores.pop(name, None)
        if core is None:
            raise CacheError(f"unknown shard: {name!r}")
        self._names.pop(id(core), None)

    def attached(self) -> list[str]:
        """Attached shard names, attach order."""
        return list(self._cores)

    def materialize(
        self, record: MemoRecord, core: "CacheCore"
    ) -> bytes | None:
        """Pull *record*'s output bytes from a sibling shard's store.

        Scans attached shards in attach order (deterministic), skipping
        the requester; the first store holding the signature donates.
        The transfer is charged over the cluster topology's link for
        the (donor, requester) pair at the record's size, then the
        bytes are seeded into the requester's store via ``put_signed``
        — exactly one new reference, which the caller's serving entry
        takes over.

        A requester with a durable L2 tier tries its own disk first
        (the base-memo materialization): a local CRC-gated read beats
        shipping the bytes over a shard link.
        """
        local = super().materialize(record, core)
        if local is not None:
            return local
        requester = self._names.get(id(core))
        for name, sibling in self._cores.items():
            if sibling is core:
                continue
            if record.output_signature not in sibling.store:
                continue
            content = sibling.store.get(record.output_signature)
            for hop in self._link_path(name, requester):
                core.ctx.charge_hop(hop, len(content))
            core.store.put_signed(content, record.output_signature)
            self.imports += 1
            self.import_bytes += len(content)
            return content
        self.import_misses += 1
        return None

    def _link_path(self, donor: str, requester: str | None) -> list[str]:
        if self._topology is None or requester is None:
            return ["shard-to-shard"]
        return self._topology.link_path(donor, requester)
