"""Entry-key placement across cache shards.

The cluster layer spreads ``(document, user)`` entry keys over N
:class:`~repro.cache.manager.DocumentCache` shards.  Two placement
policies are supplied behind one protocol:

* :class:`HashRingPolicy` — classic consistent hashing over a
  :class:`PlacementRing` with virtual nodes: placement is balanced to
  within a small factor of ideal, and a shard join/leave moves only the
  keys in the arcs the changed shard owned (≈ ``K / N`` of the
  keyspace), never reshuffling the survivors' keys among themselves.
* :class:`ReinforcedCounterPolicy` — the ring plus per-key *reinforced
  counters* in the spirit of Leconte's cache-network placement analysis
  (arXiv:1501.03446): each access to a key reinforces a bounded counter
  and a key whose counter reaches the pin threshold sticks to the shard
  that has been serving it, even across ring changes, until decay (the
  counter's "death") lets it drift back to the ring.  Under the
  Zipf-with-churn workload shapes of Olmos et al. (arXiv:1403.5479)
  this keeps the hottest keys' entries and memo locality stable while
  rebalances shuffle only the cold tail.

Placement keys are hashed by their stable string form
``"{document_id}|{user_id}"`` so placement is identical across runs and
across processes — a requirement for the deterministic simulator.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import typing
from typing import Protocol, runtime_checkable

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.entry import EntryKey

__all__ = [
    "PlacementRing",
    "PlacementPolicy",
    "HashRingPolicy",
    "ReinforcedCounterPolicy",
]


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


class PlacementRing:
    """Consistent-hash ring with virtual nodes.

    Each shard contributes ``replicas`` points (virtual nodes) on a
    64-bit ring; a key is owned by the first shard point at or after
    its own hash.  More replicas → tighter balance; 64 keeps the
    max/ideal load factor under ~1.35 for small clusters while staying
    cheap to rebuild.
    """

    def __init__(
        self, shards: typing.Iterable[str] = (), replicas: int = 64
    ) -> None:
        if replicas < 1:
            raise WorkloadError(f"replicas must be >= 1: {replicas}")
        self.replicas = replicas
        self._shards: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)

    @property
    def shards(self) -> list[str]:
        """Registered shard names, insertion order."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

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
            for replica in range(self.replicas):
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


@runtime_checkable
class PlacementPolicy(Protocol):
    """Pluggable ``entry key → shard name`` placement decision."""

    def shards(self) -> list[str]:
        """Currently placeable shard names."""
        ...  # pragma: no cover - protocol

    def add_shard(self, shard: str) -> None:
        """A shard joined the cluster."""
        ...  # pragma: no cover - protocol

    def remove_shard(self, shard: str) -> None:
        """A shard left the cluster (planned or lost)."""
        ...  # pragma: no cover - protocol

    def place(self, key: "EntryKey") -> str:
        """The shard that owns *key* right now."""
        ...  # pragma: no cover - protocol

    def note_access(self, key: "EntryKey") -> None:
        """One read/write of *key* landed (placement feedback signal)."""
        ...  # pragma: no cover - protocol


class HashRingPolicy:
    """The default policy: pure consistent hashing, no feedback."""

    def __init__(
        self, shards: typing.Iterable[str] = (), replicas: int = 64
    ) -> None:
        self.ring = PlacementRing(shards, replicas=replicas)

    def shards(self) -> list[str]:
        return self.ring.shards

    def add_shard(self, shard: str) -> None:
        self.ring.add_shard(shard)

    def remove_shard(self, shard: str) -> None:
        self.ring.remove_shard(shard)

    def place(self, key: "EntryKey") -> str:
        return self.ring.place(key)

    def replica_for(self, key: "EntryKey", primary: str) -> str | None:
        """*key*'s ring-successor replica (see the ring's method)."""
        return self.ring.replica_for(key, primary)

    def note_access(self, key: "EntryKey") -> None:
        """Stateless placement ignores access feedback."""


class ReinforcedCounterPolicy:
    """Ring placement with reinforced-counter stickiness.

    Per arXiv:1501.03446's insurance-against-churn intuition: every
    access to a key reinforces a counter bounded at ``counter_cap``;
    once the counter reaches ``pin_threshold`` the key is *pinned* to
    the shard currently serving it and keeps placing there across ring
    changes — a rebalance that would move a hot key is deferred until
    the key has cooled.  Every ``decay_interval`` accesses (a
    deterministic clockless schedule) all counters halve; a counter
    that decays below the threshold unpins its key and the ring takes
    over again.  Cold keys never pin, so join/leave still moves only
    ≈ ``K / N`` of the keyspace.
    """

    def __init__(
        self,
        shards: typing.Iterable[str] = (),
        replicas: int = 64,
        pin_threshold: int = 3,
        counter_cap: int = 8,
        decay_interval: int = 256,
    ) -> None:
        if pin_threshold < 1:
            raise WorkloadError(
                f"pin_threshold must be >= 1: {pin_threshold}"
            )
        if counter_cap < pin_threshold:
            raise WorkloadError(
                f"counter_cap must be >= pin_threshold: {counter_cap}"
            )
        if decay_interval < 1:
            raise WorkloadError(
                f"decay_interval must be >= 1: {decay_interval}"
            )
        self.ring = PlacementRing(shards, replicas=replicas)
        self.pin_threshold = pin_threshold
        self.counter_cap = counter_cap
        self.decay_interval = decay_interval
        self._counters: dict[str, int] = {}
        self._pins: dict[str, str] = {}
        self._accesses = 0

    def shards(self) -> list[str]:
        return self.ring.shards

    def add_shard(self, shard: str) -> None:
        self.ring.add_shard(shard)

    def remove_shard(self, shard: str) -> None:
        self.ring.remove_shard(shard)
        # Pins to a dead shard are void; their keys fall back to the ring.
        self._pins = {
            label: pinned
            for label, pinned in self._pins.items()
            if pinned != shard
        }

    def place(self, key: "EntryKey") -> str:
        label = placement_label(key)
        pinned = self._pins.get(label)
        if pinned is not None and pinned in self.ring:
            return pinned
        return self.ring.place(key)

    def replica_for(self, key: "EntryKey", primary: str) -> str | None:
        """*key*'s ring-successor replica; pins never bind a backup —
        a hedge/failover target must differ from wherever the key is
        pinned, which :meth:`PlacementRing.replica_for`'s ``primary``
        exclusion already guarantees."""
        return self.ring.replica_for(key, primary)

    def note_access(self, key: "EntryKey") -> None:
        label = placement_label(key)
        counter = min(self._counters.get(label, 0) + 1, self.counter_cap)
        self._counters[label] = counter
        if counter >= self.pin_threshold and label not in self._pins:
            self._pins[label] = self.place(key)
        self._accesses += 1
        if self._accesses % self.decay_interval == 0:
            self._decay()

    def _decay(self) -> None:
        decayed: dict[str, int] = {}
        for label, counter in self._counters.items():
            counter //= 2
            if counter > 0:
                decayed[label] = counter
            if counter < self.pin_threshold:
                self._pins.pop(label, None)
        self._counters = decayed

    @property
    def pinned(self) -> dict[str, str]:
        """Live ``placement label → shard`` pins (for inspection)."""
        return dict(self._pins)
