"""A cache whose constructor raised leaves nothing behind.

The wiring sequence of ``DocumentCache.__init__`` touches the world as
it goes — ``ctx.containment``, the sink (and sequenced channel) on a
shared invalidation bus, the lease tick and crash instants on the clock
— so a step that raises late must take the earlier ones back, or the
half-built cache lives on as PR 21's lost-shard zombie, from the
constructor this time.  ``CacheCluster.add_shard`` joins the ring
before it builds, so it has the same duty.
"""

from __future__ import annotations

import pytest

from repro.cache.manager import DocumentCache
from repro.cache.memo import TransformMemo
from repro.cache.notifiers import InvalidationBus
from repro.cache.policies import (
    ContainmentPolicy,
    RecoveryPolicy,
    StoragePolicy,
)
from repro.cluster import CacheCluster
from repro.errors import CacheError, StorageError
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext


def _unusable(tmp_path) -> StoragePolicy:
    """A storage directory *under a regular file*."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"")
    return StoragePolicy(directory=str(blocker / "l2"))


#: Failure point → (constructor keywords, the error it surfaces as).
FAILURE_POINTS = {
    "memo-without-policy-after-containment": (
        lambda tmp_path: dict(
            containment_policy=ContainmentPolicy(), memo=TransformMemo(8)
        ),
        CacheError,
    ),
    "storage-directory": (
        lambda tmp_path: dict(storage_policy=_unusable(tmp_path)),
        StorageError,
    ),
    "storage-directory-after-recovery": (
        lambda tmp_path: dict(
            recovery_policy=RecoveryPolicy(),
            storage_policy=_unusable(tmp_path),
        ),
        StorageError,
    ),
    "storage-directory-after-containment": (
        lambda tmp_path: dict(
            containment_policy=ContainmentPolicy(),
            storage_policy=_unusable(tmp_path),
        ),
        StorageError,
    ),
}


@pytest.mark.parametrize("point", FAILURE_POINTS)
def test_a_failed_constructor_leaves_no_zombie(point, tmp_path):
    keywords, error = FAILURE_POINTS[point]
    ctx = SimContext()
    ctx.faults = FaultPlan(ctx.clock, cache_crashes=(5_000.0,))
    kernel = PlacelessKernel(ctx)
    bus = InvalidationBus(ctx)

    with pytest.raises(error) as raised:
        DocumentCache(kernel, 1 << 20, bus=bus, **keywords(tmp_path))

    if error is StorageError:
        assert "not-a-directory" in str(raised.value)  # names the directory
    assert ctx.containment is None
    assert bus._receivers == {} and bus._channels == {}
    assert ctx.clock.pending() == 0
    # The world is as it was: a cache with *another* containment tuning
    # is not refused on behalf of the one that never came to be.
    cache = DocumentCache(
        kernel, 1 << 20, bus=bus,
        containment_policy=ContainmentPolicy(failure_threshold=7),
    )
    assert ctx.containment is cache.containment


def test_a_failed_add_shard_leaves_the_ring_as_it_was(tmp_path):
    kernel = PlacelessKernel()
    cluster = CacheCluster(
        kernel, 2, capacity_bytes=1 << 20,
        recovery_policy=RecoveryPolicy(),
        shard_kwargs={
            "storage_policy": StoragePolicy(directory=str(tmp_path))
        },
    )
    user = kernel.create_user("reader")
    references = [
        kernel.import_document(
            user, MemoryProvider(kernel.ctx, b"body %d" % n), f"doc-{n}"
        )
        for n in range(16)
    ]
    placed = [cluster.shard_for(reference) for reference in references]
    pending = kernel.ctx.clock.pending()
    # Each shard's segments live under ``<directory>/<its name>``; a
    # regular file where the third shard's would go stops it.
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "cluster-0", "cluster-1",
    ]
    (tmp_path / "cluster-2").write_bytes(b"")

    with pytest.raises(StorageError, match="cluster-2"):
        cluster.add_shard()

    assert list(cluster.shards) == ["cluster-0", "cluster-1"]
    assert cluster.topology.shards == ["cluster-0", "cluster-1"]
    assert kernel.ctx.clock.pending() == pending
    assert [cluster.shard_for(r) for r in references] == placed
    for reference in references:
        assert cluster.read(reference).content == reference.base.provider.peek()
