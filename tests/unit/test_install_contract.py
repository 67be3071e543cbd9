"""The install contract: however a version enters the cache, it enters whole.

Three sources put a ``(document, user)`` version into the entry table —
a fetch fill, a memo serve (local, or importing the bytes from another
shard) and an L2 promotion (live, or of a record
recovered across a crash).  Every one goes through
``CacheCore.install`` + ``CacheCore.arm`` and ends at
``ReadPipeline._finish``; this suite runs the same assertions against all
of them, for a plain read and for the same read driven as a generator
(``iterate_read``, the batch and cluster entry) — and
again with the cache full, because ``install`` is also the one place
room is made: before the entry exists, whatever the source.
"""

from __future__ import annotations

import pytest

from repro.cache.entry import EntryKey
from repro.cache.instrumentation import StageRecorder
from repro.cache.manager import DocumentCache
from repro.cache.notifiers import install_minimum_notifiers
from repro.cache.policies import MemoPolicy, RecoveryPolicy, StoragePolicy
from repro.cluster import CacheCluster, ClusterPolicy
from repro.errors import CacheError
from repro.placeless.kernel import PlacelessKernel
from repro.properties.translate import TranslationProperty
from repro.providers.memory import MemoryProvider
from repro.sim.scheduler import drive


def _world(n_users: int = 2, n_documents: int = 1):
    """*n_documents* same-sized translated documents, one reference per
    user each (identical chains, so any user's version fits another)."""
    kernel = PlacelessKernel()
    users = [kernel.create_user(f"user-{n}") for n in range(n_users)]
    references = []
    for d in range(n_documents):
        body = f"document {d:02d}: ".encode() + bytes(range(32, 112))
        base = kernel.create_document(
            users[0], MemoryProvider(kernel.ctx, body), f"doc-{d}"
        )
        base.attach(TranslationProperty())
        references.append(
            [kernel.space(user).add_reference(base) for user in users]
        )
    return kernel, references


def _fill():
    kernel, ((target, _),) = _world()
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, recovery_policy=RecoveryPolicy()
    )
    return cache, target, "miss"


def _memo():
    kernel, ((first, target),) = _world()
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 20, memo_policy=MemoPolicy(),
        recovery_policy=RecoveryPolicy(),
    )
    cache.read(first)
    return cache, target, "miss-memoized"


def _memo_import():
    kernel, (row,) = _world(n_users=8)
    cluster = CacheCluster(
        kernel, 4, capacity_bytes=1 << 20, cluster_policy=ClusterPolicy(),
        memo_policy=MemoPolicy(), recovery_policy=RecoveryPolicy(),
    )
    first = row[0]
    target = next(
        reference for reference in row
        if cluster.shard_for(reference) is not cluster.shard_for(first)
    )
    cluster.read(first)
    # The record is in the shared plane, the bytes only in the first
    # shard's store: the target's shard must import them.
    shard = cluster.shard_for(target)
    assert len(shard.core.store) == 0
    return shard, target, "miss-memoized"


def _l2(recovered: bool = False):
    kernel, rows = _world(n_users=1, n_documents=3)
    references = [row[0] for row in rows]
    # Two slots of (translated) bytes: reading three demotes the first.
    slot = len(kernel.read(references[0]).content)
    cache = DocumentCache(
        kernel, capacity_bytes=2 * slot,
        storage_policy=StoragePolicy(), recovery_policy=RecoveryPolicy(),
    )
    for reference in references:
        cache.read(reference)
    target = references[0]
    assert EntryKey.for_reference(target) in cache.storage
    if recovered:
        cache.crash()
        cache.restart()
        assert cache.storage_stats.recovered_entries > 0
    return cache, target, "miss-promoted"


def _l2_recovered():
    return _l2(recovered=True)


@pytest.fixture
def built():
    """``built(source)`` calls *source*; what it built is shut down
    after the test (an L2 tier's directory is not left to the collector)."""
    caches: list = []

    def build(source):
        cache, reference, disposition = source()
        caches.append(cache)
        return cache, reference, disposition

    yield build
    for cache in caches:
        cache.shutdown()


SOURCES = pytest.mark.parametrize(
    "source", [_fill, _memo, _memo_import, _l2, _l2_recovered],
    ids=lambda source: source.__name__.strip("_"),
)


@SOURCES
@pytest.mark.parametrize("driven", [False, True], ids=["read", "iterate"])
def test_every_source_installs_a_whole_entry(source, driven, built):
    cache, reference, disposition = built(source)
    core = cache.core
    key = EntryKey.for_reference(reference)
    assert key not in core.entries
    reads = StageRecorder()
    core.instrumentation.subscribe(
        lambda event: event.stage == "read" and reads(event)
    )

    if driven:
        outcome = drive(cache.iterate_read(reference, concurrent=False))
    else:
        outcome = cache.read(reference)
    content = outcome.content
    assert (outcome.hit, outcome.disposition) == (False, disposition)
    assert [row[:3] for row in reads.rows()] == [("read", disposition, 1)]

    # In the table *and* the per-document index, as one object.
    entry = core.entries[key]
    assert core.entries_by_document[key.document_id][key] is entry
    assert core.store.get(entry.signature) == content
    assert entry.size == len(content)
    # One store reference per entry naming the signature — no more (a
    # leak pins the bytes forever), no fewer (a sibling's drop would
    # free bytes this entry still serves).
    assert core.store.refcount(entry.signature) == sum(
        1 for other in core.entries.values()
        if other.signature == entry.signature
    )
    assert core.store.physical_bytes <= core.capacity_bytes
    # Armed: the §3 minimum notifier set is already on the path, and
    # the recovery manager resyncs against this very reference.
    assert install_minimum_notifiers(reference, core.bus, core.cache_id) == []
    assert core.recovery._references[key] is reference

    # And the next read of it is an ordinary verified hit.
    again = cache.read(reference)
    assert (again.disposition, again.content) == ("hit", content)


def test_import_and_recovered_arms_took_the_path_they_name(built):
    shard, reference, _ = built(_memo_import)
    shard.read(reference)
    assert shard.memo_stats.imports == 1
    cache, reference, _ = built(_l2_recovered)
    cache.read(reference)
    assert cache.storage_stats.recovered_promotions == 1


def _under_pressure(cache):
    """Leave *cache* exactly full, with something resident to evict:
    an install that brings new bytes must then make room for them."""
    core = cache.core
    if not core.entries:
        kernel = core.kernel
        owner = kernel.create_user("ballast-owner")
        cache.read(
            kernel.import_document(
                owner, MemoryProvider(kernel.ctx, b"ballast " * 16), "ballast"
            )
        )
    core.capacity_bytes = core.store.physical_bytes
    # Every resident is dearer to refetch than the newcomer will be, so
    # the newcomer is the replacement heap's first pop once it is in.
    for entry in core.entries.values():
        entry.replacement_cost_ms *= 1_000.0
        core.policy.on_access(entry)
    return core


@SOURCES
def test_every_source_makes_room_before_it_installs(source, built):
    cache, reference, disposition = built(source)
    core = _under_pressure(cache)
    key = EntryKey.for_reference(reference)
    signatures_before = {e.signature for e in core.entries.values()}
    evictions = core.stats.evictions

    assert cache.read(reference).disposition == disposition

    entry = core.entries[key]
    assert core.store.physical_bytes <= core.capacity_bytes
    if entry.signature not in signatures_before:
        assert core.stats.evictions > evictions  # new bytes: room was made
    # The entry just built is still the policy's to choose: with every
    # other entry pinned it must come back as the victim.  (The paths
    # that installed first and then evicted with ``protect=key`` had the
    # heap policy pop, drop and orphan it; a shard left holding only
    # such orphans had bytes and no victim.)
    for other in core.entries.values():
        other.pinned = other is not entry
    assert core.policy.select_victim(core.entries) == key


def test_a_fill_that_cannot_make_room_leaves_the_store_as_it_found_it():
    kernel, rows = _world(n_users=1, n_documents=2)
    resident, target = rows[0][0], rows[1][0]
    cache = DocumentCache(kernel, capacity_bytes=1 << 20)
    cache.read(resident)
    core = cache.core
    core.capacity_bytes = core.store.physical_bytes
    (entry,) = core.entries.values()
    entry.pinned = True  # everything else is pinned: no victim
    physical, stored = core.store.physical_bytes, len(core.store)

    with pytest.raises(CacheError, match="nothing evictable"):
        cache.read(target)

    assert EntryKey.for_reference(target) not in core.entries
    # The reference ``fill`` took for the bytes it fetched is released:
    # no orphaned bytes, no extra count on the resident's.
    assert (core.store.physical_bytes, len(core.store)) == (physical, stored)
    assert core.store.refcount(entry.signature) == 1
    assert cache.read(resident).disposition == "hit"
