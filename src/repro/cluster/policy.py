"""The cluster layer's opt-in configuration.

Mirrors the cache's seam-config idiom (:mod:`repro.cache.policies`): one
frozen, validating dataclass.  A
:class:`~repro.cluster.coordinator.CacheCluster` built with
``cluster_policy=None`` wires N fully isolated shards — private memo
tables, private flight tables, no cross-shard traffic — which is both
the A17 baseline arm and the guarantee that single-cache golden digests
are untouched (a one-shard cluster with no policy is byte-identical to
a plain :class:`~repro.cache.manager.DocumentCache`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterPolicy", "DefaultClusterPolicy"]


@dataclass(frozen=True)
class ClusterPolicy:
    """Cross-shard sharing — the configuration A17's treatment arm runs.

    One :class:`~repro.cluster.memo_share.SharedTransformMemo` spans
    every shard: a chain execution recorded by any shard answers every
    other shard's miss as a signature-only adopt, importing the output
    bytes over the shard link when necessary.  One
    :class:`~repro.sim.scheduler.FlightTable` spans them too, so
    single-flight coalescing on the ``(source signature, chain
    fingerprint)`` memo plane crosses shard boundaries and a 32-way
    cross-shard stampede still runs one chain.  The shared memo holds
    :data:`~repro.cache.memo.MEMO_CAPACITY` records per shard; there is
    nothing to set — constructing the policy is the opt-in.
    """


#: Historical constructor name (benchmarks and tests build it by this).
DefaultClusterPolicy = ClusterPolicy
