"""A shard its cluster lost stays lost — under a fault plan too.

``lose_shard`` composed with a fault plan whose ``cache_crashes``
instant comes *after* the loss: the departed shard had registered its
crash-and-restart callback on the clock at construction, and a restart
re-grants the lease, re-enables sequencing on the shared bus under an
unregistered cache id and renews forever — a zombie whose counters were
already folded into the cluster's retired totals.  The chaos job runs
this file at seeds 77 / 101 / 202.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.cache.policies import OverloadPolicy, RecoveryPolicy
from repro.cluster import CacheCluster
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))
CRASH_AT_MS = 5_000.0


def _world(lossy: bool):
    ctx = SimContext()
    ctx.faults = FaultPlan(
        ctx.clock,
        seed=CHAOS_SEED,
        cache_crashes=(CRASH_AT_MS,),
        notifier_loss_probability=0.2 if lossy else 0.0,
    )
    kernel = PlacelessKernel(ctx)
    cluster = CacheCluster(
        kernel, 2, capacity_bytes=1 << 20, recovery_policy=RecoveryPolicy()
    )
    user = kernel.create_user("reader")
    references = [
        kernel.import_document(
            user, MemoryProvider(ctx, b"body %d" % n), f"doc-{n}"
        )
        for n in range(8)
    ]
    return ctx, cluster, references


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy-bus"])
def test_a_lost_shard_does_not_come_back_at_the_crash_instant(lossy):
    ctx, cluster, references = _world(lossy)
    for reference in references:
        cluster.read(reference)
    name, dead = next(iter(cluster.shards.items()))
    cluster.lose_shard(name)
    # Lease ticks self-reschedule, so "schedules nothing" is: what the
    # clock holds is the survivor's one tick and its one crash instant.
    assert ctx.clock.pending() == 2
    recovery_at_loss = copy.deepcopy(dead.recovery_stats)
    total_before = cluster.aggregate_stats()
    reads_before = total_before.hits + total_before.misses

    ctx.clock.advance(16_000.0)  # well past the crash instant

    assert dead.recovery_stats == recovery_at_loss  # no grant, renewal, restart
    assert len(dead) == 0 and dead.dirty_count == 0
    assert cluster.bus.channel_checkpoint(dead.cache_id) is None
    assert ctx.clock.pending() == 1  # the survivor's lease tick
    # The survivor did crash and restart on schedule, and serves on.
    (survivor,) = cluster.shards.values()
    assert survivor.recovery_stats.restarts == 1
    for reference in references:
        assert cluster.read(reference).content == reference.base.provider.peek()
    total = cluster.aggregate_stats()
    assert total.hits + total.misses == reads_before + len(references)


def test_shutting_a_lost_shard_down_again_changes_nothing():
    ctx, cluster, references = _world(lossy=False)
    name, dead = next(iter(cluster.shards.items()))
    cluster.lose_shard(name)
    pending = ctx.clock.pending()
    dead.shutdown()
    assert ctx.clock.pending() == pending
    assert cluster.bus.channel_checkpoint(dead.cache_id) is None


def test_a_read_through_a_lost_shards_handle_stays_out_of_the_health_table():
    ctx = SimContext()
    kernel = PlacelessKernel(ctx)
    cluster = CacheCluster(
        kernel, 2, capacity_bytes=1 << 20,
        recovery_policy=RecoveryPolicy(), overload_policy=OverloadPolicy(),
    )
    user = kernel.create_user("reader")
    reference = kernel.import_document(
        user, MemoryProvider(ctx, b"body"), "doc"
    )
    cluster.read(reference)
    name, dead = next(iter(cluster.shards.items()))
    cluster.lose_shard(name)
    assert name not in cluster.health_snapshot()
    # Someone kept the departed shard's handle and reads through it: a
    # miss and then a hit, both read terminals.
    dead.read(reference)
    dead.read(reference)
    assert name not in cluster.health_snapshot()
    assert list(cluster.health_snapshot()) == list(cluster.shards)
