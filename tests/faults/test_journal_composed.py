"""One write-back journal under disk faults, a second writer and crashes.

Recovery, the durable L2 tier and write-back compose here with a disk
that fails writes, loses fsyncs and corrupts records, while a second
user writes the same documents behind the cache's back.  Every crash
and restart must replay each acknowledged, unflushed write exactly once
and bring back no write a flush already pushed — whatever the disk did
to the journal's mirror in ``journal.seg``.  The chaos job runs this
file at seeds 77 / 101 / 202.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.cache.entry import EntryKey
from repro.cache.manager import DocumentCache
from repro.cache.pipeline import WriteMode
from repro.cache.policies import RecoveryPolicy, StoragePolicy
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "77"))
N_DOCS = 6
STEPS = 400


@pytest.fixture
def world(tmp_path):
    kernel = PlacelessKernel()
    ctx = kernel.ctx
    ctx.faults = FaultPlan(
        ctx.clock,
        seed=CHAOS_SEED,
        disk_write_fail_probability=0.15,
        disk_fsync_lost_probability=0.15,
        disk_corrupt_probability=0.05,
    )
    owner = kernel.create_user("owner")
    other = kernel.create_user("other")
    providers, mine, theirs = [], [], []
    for n in range(N_DOCS):
        provider = MemoryProvider(ctx, b"original %d" % n + bytes(200))
        reference = kernel.import_document(owner, provider, f"doc-{n}")
        providers.append(provider)
        mine.append(reference)
        theirs.append(kernel.space(other).add_reference(reference.base))
    cache = DocumentCache(
        kernel,
        # Two documents' worth: reads evict, and evictions demote.
        capacity_bytes=2 * len(providers[0].peek()),
        write_mode=WriteMode.WRITE_BACK,
        use_verifiers=False,
        recovery_policy=RecoveryPolicy(),
        storage_policy=StoragePolicy(directory=str(tmp_path)),
    )
    replays: Counter = Counter()
    cache.instrumentation.subscribe(
        lambda event: replays.update([(event.document_id, event.user_id)])
        if (event.stage, event.outcome) == ("journal", "replayed")
        else None
    )
    yield kernel, cache, providers, mine, theirs, replays
    cache.shutdown()


def test_restarts_replay_each_unflushed_write_once_and_no_flushed_one(world):
    kernel, cache, providers, mine, theirs, replays = world
    rng = random.Random(CHAOS_SEED)
    #: The acknowledged writes no flush has pushed yet, by document.
    unflushed: dict[int, bytes] = {}
    #: What each provider must hold: the last bytes a flush or the
    #: second writer put there.
    server = {n: provider.peek() for n, provider in enumerate(providers)}
    restarts = flushes = 0
    for step in range(STEPS):
        # Virtual time passes, so a tripped storage breaker reopens.
        kernel.ctx.clock.advance(50.0)
        doc = rng.randrange(N_DOCS)
        roll = rng.random()
        if roll < 0.30:
            content = b"mine %d" % step + bytes(200)
            cache.write(mine[doc], content)
            unflushed[doc] = content
        elif roll < 0.50:
            if cache.flush(mine[doc]):
                server[doc] = unflushed.pop(doc)
                flushes += 1
        elif roll < 0.62:
            content = b"theirs %d" % step + bytes(200)
            kernel.write(theirs[doc], content)
            server[doc] = content
        elif roll < 0.72:
            cache.crash()
            replays.clear()
            cache.restart()
            restarts += 1
            keys = [EntryKey.for_reference(mine[n]) for n in unflushed]
            expected = {(key.document_id, key.user_id) for key in keys}
            # Each acknowledged, unflushed write replays exactly once...
            assert replays == Counter(expected), step
            # ...and nothing a flush retired comes back.
            assert cache.dirty_count == len(unflushed), step
        else:
            # Reading one's own dirty document flushes it first.
            cache.read(mine[doc])
            if doc in unflushed:
                server[doc] = unflushed.pop(doc)
                flushes += 1
        assert {
            n: provider.peek() for n, provider in enumerate(providers)
        } == server, step
    assert cache.flush_all() == len(unflushed)
    server.update(unflushed)
    assert {
        n: provider.peek() for n, provider in enumerate(providers)
    } == server
    stats = cache.storage_stats
    # The composition was exercised: restarts after flushes, demotions
    # and promotions, and a disk that both failed writes and lost
    # fsyncs along the way.
    assert restarts and flushes
    assert stats.demotions and stats.promotions
    assert stats.write_failures and stats.fsyncs_lost
