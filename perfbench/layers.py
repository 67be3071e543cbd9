"""Where the layers are: traced callables and public counters.

``TARGETS`` names the layer-boundary public callables the traced run
wraps (label, class, attribute); :func:`counters` reads the exact
counts the layers already publish.  Both are looked up from outside —
nothing here is imported by the package under test.
"""

from __future__ import annotations

from repro.cache.instrumentation import InstrumentationBus
from repro.cache.manager import DocumentCache
from repro.cache.memo import TransformMemo
from repro.cache.replacement import GreedyDualSizePolicy
from repro.cache.verifiers import Verifier
from repro.cluster import CacheCluster, HashRingPolicy
from repro.content.store import ContentStore
from repro.placeless.kernel import PlacelessKernel
from repro.providers.base import BitProvider
from repro.storage.segment import SegmentLog
from repro.workload.churn import ChurnCatalog

from perfbench.tracing import Target
from perfbench.workloads import World

#: Every workload runs Greedy-Dual-Size, so that class's methods (as
#: resolved through its MRO) are the replacement layer's boundary.
TARGETS: list[Target] = [
    ("cache.read", DocumentCache, "read"),
    ("cache.write", DocumentCache, "write"),
    ("cache.invalidate_document", DocumentCache, "invalidate_document"),
    ("cluster.read", CacheCluster, "read"),
    ("cluster.write", CacheCluster, "write"),
    ("cluster.place", HashRingPolicy, "place"),
    ("placeless.kernel_read", PlacelessKernel, "read"),
    ("placeless.kernel_write", PlacelessKernel, "write"),
    ("providers.fetch", BitProvider, "fetch"),
    ("providers.store", BitProvider, "store"),
    ("content.put_signed", ContentStore, "put_signed"),
    ("content.put", ContentStore, "put"),
    ("cache.replacement.on_access", GreedyDualSizePolicy, "on_access"),
    ("cache.replacement.on_insert", GreedyDualSizePolicy, "on_insert"),
    ("cache.replacement.select_victim", GreedyDualSizePolicy, "select_victim"),
    ("cache.verifiers.run", Verifier, "run"),
    ("cache.instrumentation.emit", InstrumentationBus, "emit"),
    ("cache.memo.lookup", TransformMemo, "lookup"),
    ("cache.memo.record", TransformMemo, "record"),
    ("storage.append", SegmentLog, "append"),
    ("storage.sync", SegmentLog, "sync"),
    ("storage.read", SegmentLog, "read"),
    ("workload.document", ChurnCatalog, "document"),
]


def counters(world: World) -> dict[str, float]:
    """Exact counts from the public stats objects, summed over caches."""
    stats = world.stats()
    kernel = world.kernel.stats
    memo = [c.memo_stats for c in world.caches if c.memo_stats is not None]
    storage = [
        c.storage_stats for c in world.caches if c.storage_stats is not None
    ]
    physical, logical = world.stored_bytes()
    return {
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
        "cache.hit_latency_ms": stats.hit_latency_ms,
        "cache.miss_latency_ms": stats.miss_latency_ms,
        "cache.evictions": stats.evictions,
        "cache.verifier_executions": stats.verifier_executions,
        "cache.verifier_invalidations": stats.verifier_invalidations,
        "cache.notifier_deliveries": stats.notifier_deliveries,
        "cache.writes_through": stats.writes_through,
        "cache.memo.adoptions": sum(m.adoptions for m in memo),
        "cache.memo.imports": sum(m.imports for m in memo),
        "placeless.chain_executions": kernel.reads,
        "placeless.bytes_read": kernel.bytes_read,
        "content.bytes_filled": stats.bytes_filled,
        "content.physical_bytes": physical,
        "content.logical_bytes": logical,
        "storage.demotions": sum(s.demotions for s in storage),
        "storage.promotions": sum(s.promotions for s in storage),
        "storage.bytes_appended": world.storage_bytes_appended(),
        "workload.documents_minted": world.catalog.materialized_count,
    }
