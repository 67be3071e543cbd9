"""Entry-key placement across cache shards.

The cluster layer spreads ``(document, user)`` entry keys over N
:class:`~repro.cache.manager.DocumentCache` shards by classic
consistent hashing: :class:`HashRingPolicy` is a ring with virtual
nodes.  Placement is balanced to
within a small factor of ideal, and a shard join/leave moves only the
keys in the arcs the changed shard owned (≈ ``K / N`` of the keyspace),
never reshuffling the survivors' keys among themselves.

Placement keys are hashed by their stable string form
``"{document_id}|{user_id}"`` so placement is identical across runs and
across processes — a requirement for the deterministic simulator.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import typing

from repro.cache.entry import EntryKey
from repro.errors import WorkloadError

__all__ = ["HashRingPolicy", "RING_REPLICAS"]

#: Virtual nodes per shard: 64 keeps the max/ideal load factor under
#: ~1.35 for small clusters while staying cheap to rebuild.
RING_REPLICAS = 64


def _hash_point(label: str) -> int:
    """A stable 64-bit point on the ring for *label*."""
    digest = hashlib.md5(label.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def placement_label(key: "EntryKey") -> str:
    """The stable string form an entry key is hashed under."""
    return f"{key.document_id}|{key.user_id}"


@functools.lru_cache(maxsize=1 << 16)
def _key_point(key: "EntryKey") -> int:
    """*key*'s point on the ring: a pure function of the key
    (membership only decides which shard owns it), so it is memoised
    across routed reads and no ring rebuild ever invalidates it."""
    return _hash_point(placement_label(key))


class HashRingPolicy:
    """The cluster's ``entry key → shard name`` decision: a
    consistent-hash ring with virtual nodes, no feedback.

    Each shard contributes :data:`RING_REPLICAS` points (virtual nodes)
    on a 64-bit ring; a key is owned by the first shard point at or
    after its own hash.
    """

    def __init__(self, shards: typing.Iterable[str] = ()) -> None:
        self._shards: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)

    def shards(self) -> list[str]:
        """Registered shard names, insertion order."""
        return list(self._shards)

    def add_shard(self, shard: str) -> None:
        """Add one shard's virtual nodes; rejects duplicates."""
        if shard in self._shards:
            raise WorkloadError(f"duplicate shard: {shard!r}")
        self._shards.append(shard)
        self._rebuild()

    def remove_shard(self, shard: str) -> None:
        """Remove one shard's virtual nodes."""
        try:
            self._shards.remove(shard)
        except ValueError:
            raise WorkloadError(f"unknown shard: {shard!r}") from None
        self._rebuild()

    def _rebuild(self) -> None:
        points: list[tuple[int, str]] = []
        for shard in self._shards:
            for replica in range(RING_REPLICAS):
                points.append((_hash_point(f"{shard}#{replica}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def place(self, key: "EntryKey") -> str:
        """The shard owning *key*'s arc of the ring."""
        if not self._shards:
            raise WorkloadError("placement ring has no shards")
        index = bisect.bisect_right(self._points, _key_point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def replica_for(self, key: "EntryKey", primary: str) -> str | None:
        """The first shard *after* *key*'s arc that is not *primary*.

        Classic successor-replica placement: walking the ring past the
        owner yields a deterministic, per-key-spread backup — the shard
        the cluster hedges to and fails over onto.  ``None`` when no
        distinct shard exists (a one-shard ring).
        """
        if len(self._shards) < 2:
            return None
        index = bisect.bisect_right(self._points, _key_point(key))
        count = len(self._points)
        for offset in range(count):
            owner = self._owners[(index + offset) % count]
            if owner != primary:
                return owner
        return None
