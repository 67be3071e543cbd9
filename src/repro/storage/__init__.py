"""The durable L2 tier: checksummed segments under the in-memory cache.

The paper's cache is volatile — a crashed cache re-answers "is this copy
valid?" from scratch.  This package gives a
:class:`~repro.cache.manager.DocumentCache` a durable second tier so a
restart is *warm*: evicted entries demote to disk
(:class:`~repro.storage.store.DiskContentStore` + a catalog segment),
misses promote them back under full validity gating, the write-back
journal and transform memo spill to disk, and
:meth:`~repro.storage.tier.L2Tier.recover` rebuilds all of it after a
crash — every recovered entry verifier-gated on its first serve.

Everything is built on :class:`~repro.storage.segment.SegmentLog`
(CRC-framed append-only files with an explicit durable watermark), so
torn tails, corrupt records and lying fsyncs are modeled and tested, not
assumed away.  Disk faults trip a storage breaker; while it is open the
cache falls back to L1-only semantics rather than failing reads.

Enable with ``DocumentCache(..., storage_policy=DefaultStoragePolicy())``
— with no policy the tier does not exist and cache behaviour is
byte-identical to earlier revisions.
"""

from repro.storage.segment import (
    K_CONTENT,
    K_DEMOTE,
    K_DROP,
    K_FLUSHED,
    K_JOURNAL,
    K_MEMO,
    SegmentLog,
)
from repro.storage.store import DiskContentStore, DiskSlot
from repro.storage.tier import L2Record, L2Tier, StorageStats

__all__ = [
    "SegmentLog",
    "K_CONTENT",
    "K_DEMOTE",
    "K_DROP",
    "K_JOURNAL",
    "K_FLUSHED",
    "K_MEMO",
    "DiskSlot",
    "DiskContentStore",
    "L2Record",
    "L2Tier",
    "StorageStats",
]
