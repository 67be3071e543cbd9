"""The cluster layer: sharded multi-cache topology over one kernel.

The paper's notifier model (AFS-style callbacks from document servers,
§3) was designed for *many* caches; this package finally runs many.
:class:`~repro.cluster.coordinator.CacheCluster` owns N fully wired
:class:`~repro.cache.manager.DocumentCache` shards behind
consistent-hash placement (:mod:`repro.cluster.placement`), shares the
transform-memo plane across them
(:mod:`repro.cluster.memo_share` — one shard's chain execution becomes
every shard's signature-only adopt), fans ``read_many`` batches across
shards in one deterministic FIFO batch with single-flight coalescing
spanning shard boundaries, and repairs topology changes (rebalance,
shard loss) by reusing the A13 anti-entropy resync.  Everything is
opt-in behind :class:`~repro.cluster.policy.ClusterPolicy`; a one-shard
cluster with no policy is byte-identical to a plain ``DocumentCache``.
"""

from repro.cluster.coordinator import CacheCluster
from repro.cluster.memo_share import SharedTransformMemo
from repro.cluster.placement import HashRingPolicy
from repro.cluster.policy import ClusterPolicy, DefaultClusterPolicy

__all__ = [
    "CacheCluster",
    "SharedTransformMemo",
    "HashRingPolicy",
    "ClusterPolicy",
    "DefaultClusterPolicy",
]
