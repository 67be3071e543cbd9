"""Property: a crash at any virtual instant never yields a stale byte.

The recovery contract of the durable tier: whatever instant the crash
lands on — mid-demotion, mid-promotion, with arbitrary disk faults in
flight — every byte served after the restart matches the backing
source at serve time.  Recovered records are chain-, source-, CRC- and
verifier-gated, so a copy whose source changed while the cache was
down must be refused and refetched, never served.

Runs under the chaos seeds (77, 101, 202) the fault tier pins
elsewhere, with the diskchaos-grade disk seams active throughout.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultStoragePolicy
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider

N_DOCS = 5
CHAOS_SEEDS = (77, 101, 202)
#: How long past the crash the workload keeps reading (virtual ms).
_TAIL_MS = 1_200.0


@settings(deadline=None, max_examples=15)
@given(
    seed=st.sampled_from(CHAOS_SEEDS),
    crash_at=st.floats(min_value=50.0, max_value=2_500.0),
    mutate_mask=st.integers(min_value=0, max_value=2 ** N_DOCS - 1),
)
def test_no_stale_byte_served_across_crash(seed, crash_at, mutate_mask):
    kernel = PlacelessKernel()
    kernel.ctx.faults = FaultPlan(
        kernel.ctx.clock,
        seed=seed,
        cache_crashes=(crash_at,),
        disk_write_fail_probability=0.15,
        disk_fsync_lost_probability=0.10,
        disk_corrupt_probability=0.10,
        disk_slow_io_probability=0.10,
    )
    user = kernel.create_user("alice")
    providers, references, truth = [], [], []
    for i in range(N_DOCS):
        content = f"doc-{i}:".encode() + bytes(range(120))
        provider = MemoryProvider(kernel.ctx, content)
        providers.append(provider)
        references.append(kernel.import_document(user, provider, f"d{i}"))
        truth.append(content)
    size = len(truth[0])
    cache = DocumentCache(
        kernel,
        capacity_bytes=2 * size,  # constant demotion pressure
        storage_policy=DefaultStoragePolicy(),
        name="prop-storage",
    )
    try:
        clock = kernel.ctx.clock
        mutated = False
        step = 0
        while clock.now_ms < crash_at + _TAIL_MS:
            clock.advance(10.0)  # the scheduled crash+restart fires in here
            if not mutated and clock.now_ms >= crash_at:
                # The cache is freshly restarted and its L1 is empty: any
                # stale byte from here on could only come off the disk
                # tier.  Rewrite a drawn subset of sources out-of-band so
                # every recovered copy of them is silently stale.
                for index in range(N_DOCS):
                    if mutate_mask >> index & 1:
                        rewritten = f"rewritten-{index}-while-down".encode()
                        providers[index].store(rewritten)
                        truth[index] = rewritten
                mutated = True
            index = step % N_DOCS
            step += 1
            outcome = cache.read(references[index])
            assert outcome.content == truth[index], (
                f"stale bytes served for doc {index} at "
                f"{clock.now_ms:.0f}ms (seed {seed}, crash at "
                f"{crash_at:.0f}ms, disposition {outcome.disposition!r})"
            )
        assert cache.storage_stats.crashes == 1
        assert cache.storage_stats.restarts == 1
    finally:
        cache.shutdown()
