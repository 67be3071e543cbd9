"""A18 — persistent L2 tier: crash-warm restart and disk-fault degradation.

A cache process that crashes loses every byte it held; A13 showed the
write-back journal saving acknowledged *writes*, but the read working
set still came back cold.  This experiment measures what the durable L2
content tier buys at restart, and what a hostile disk costs it:

* **warm vs. cold restart** — the same skewed workload (a resident hot
  set plus rotating cold documents that demote to disk on eviction)
  runs across a fault-plan-scheduled mid-run crash, once without
  storage and once with it.  The cold cache refetches everything; the
  warm cache promotes its demoted copies back (chain-, source-, CRC-
  and verifier-gated, so recovered bytes are never served unverified).
  The headline is the post-restart hit ratio — warm strictly above
  cold — and the virtual time from the crash instant until read
  latency first falls back under the pre-crash p99.
* **disk-fault degradation** — the same warm arm under a hostile disk
  (failed writes, lying fsyncs, corrupted records, slow I/O).  The
  tier must absorb all of it: corrupted records are CRC-dropped at
  recovery rather than served, repeated write failures trip the
  storage breaker into L1-only fallback, and every byte served in the
  whole run remains ground-truth identical — zero wrong bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.bench.harness import fmt, percentile, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultStoragePolicy
from repro.faults.plan import FaultPlan
from repro.placeless.kernel import PlacelessKernel
from repro.providers.memory import MemoryProvider
from repro.sim.context import SimContext

__all__ = ["ArmResult", "run_arm", "main"]

_SEED = 11
#: Virtual gap between successive reads in the scan loop.
_READ_GAP_MS = 15.0
#: Reads earlier than this are warm-up noise, excluded from the
#: pre-crash latency baseline.
_WARMUP_MS = 600.0
#: Dispositions that avoided a full backing-store fetch.
_WARM_DISPOSITIONS = frozenset(
    {"hit", "revalidated", "miss-promoted", "miss-memoized"}
)
#: Hostile-disk seam probabilities for the degradation arm.
_DISK_FAULTS = {
    "disk_write_fail_probability": 0.30,
    "disk_fsync_lost_probability": 0.10,
    "disk_corrupt_probability": 0.15,
    "disk_slow_io_probability": 0.10,
    "disk_slow_io_ms": 5.0,
}


@dataclass
class ArmResult:
    """One workload run across a scheduled crash, cold or warm."""

    label: str
    storage: bool
    hostile_disk: bool
    crash_at_ms: float
    reads_pre: int
    reads_post: int
    pre_p50_ms: float
    pre_p99_ms: float
    post_hit_ratio: float
    post_warm_hits: int
    #: Virtual ms from the crash instant until a post-restart read
    #: first comes in at or under the pre-crash p99 latency.
    restart_to_p99_ms: float | None
    post_mean_ms: float
    wrong_bytes_served: int
    dispositions: dict[str, int]
    demotions: int
    promotions: int
    recovered_entries: int
    recovered_promotions: int
    corrupt_records_recovered: int
    dropped_records: int
    write_failures: int
    fallback_skips: int
    breaker_trips: int
    breaker_closes: int


def _content(index: int, doc_bytes: int) -> bytes:
    prefix = f"document-{index}:".encode()
    body = bytes((index * 7 + j) % 251 for j in range(doc_bytes))
    return prefix + body


def _deployment(
    seed: int,
    storage: bool,
    crash_at: float,
    n_docs: int,
    doc_bytes: int,
    capacity: int,
    disk_faults: dict[str, float] | None,
    name: str,
):
    """One reader over *n_docs* plain documents, crash scheduled."""
    ctx = SimContext()
    ctx.faults = FaultPlan(
        ctx.clock,
        seed=seed,
        cache_crashes=(crash_at,),
        **(disk_faults or {}),
    )
    kernel = PlacelessKernel(ctx)
    user = kernel.create_user("reader")
    references = []
    truths = []
    for i in range(n_docs):
        content = _content(i, doc_bytes)
        provider = MemoryProvider(ctx, content)
        references.append(kernel.import_document(user, provider, f"doc-{i}"))
        truths.append(content)
    policy = None
    if storage:
        # The degradation arm runs a twitchier breaker: two consecutive
        # disk failures are enough to fall back to L1-only, the posture
        # an operator would pick for a disk this hostile.
        policy = (
            DefaultStoragePolicy(breaker_failure_threshold=2)
            if disk_faults else DefaultStoragePolicy()
        )
    cache = DocumentCache(
        kernel,
        capacity_bytes=capacity,
        storage_policy=policy,
        name=name,
    )
    return kernel, cache, references, truths


def run_arm(
    storage: bool,
    seed: int = _SEED,
    *,
    n_docs: int = 18,
    doc_bytes: int = 220,
    crash_at: float = 3_000.0,
    rounds_post: int = 8,
    hostile_disk: bool = False,
    label: str,
) -> ArmResult:
    """Run the skewed scan across the scheduled crash; measure recovery.

    The working set splits into a hot third (read every round, stays
    L1-resident) and a cold remainder (three per round, round-robin, so
    each cold read evicts — and with storage, demotes — an earlier
    one).  The capacity holds the hot set plus two cold documents, so
    by the crash instant nearly the whole cold set has been demoted to
    the L2 tier.  The crash fires mid-loop off the fault plan's clock
    callback; the loop just keeps reading.
    """
    n_hot = max(1, n_docs // 3)
    doc_size = len(_content(0, doc_bytes))
    # The hot set plus a round's cold reads fit (so hot stays resident
    # and hits), but the full cold rotation does not (so each cold doc
    # is evicted — demoted, with storage — before its next read).
    capacity = (n_hot + 4) * doc_size
    kernel, cache, references, truths = _deployment(
        seed, storage, crash_at, n_docs, doc_bytes, capacity,
        _DISK_FAULTS if hostile_disk else None,
        name=f"a18-{label}",
    )
    clock = kernel.ctx.clock
    cold_indices = list(range(n_hot, n_docs))
    cold_ptr = 0
    pre_latencies: list[float] = []
    post: list[tuple[float, float, str]] = []
    dispositions: Counter[str] = Counter()
    wrong = 0
    reads_pre = 0
    post_rounds = 0
    while post_rounds < rounds_post:
        plan = list(range(n_hot))
        for _ in range(min(3, len(cold_indices))):
            plan.append(cold_indices[cold_ptr % len(cold_indices)])
            cold_ptr += 1
        for i in plan:
            clock.advance(_READ_GAP_MS)  # crash callback fires in here
            started = clock.now_ms
            outcome = cache.read(references[i])
            dispositions[outcome.disposition] += 1
            if outcome.content != truths[i]:
                wrong += 1
            if started < crash_at:
                reads_pre += 1
                if started >= _WARMUP_MS:
                    pre_latencies.append(outcome.elapsed_ms)
            else:
                post.append((started, outcome.elapsed_ms, outcome.disposition))
        if clock.now_ms > crash_at:
            post_rounds += 1
    pre_p99 = percentile(pre_latencies, 99)
    restart_to_p99 = next(
        (t - crash_at for t, elapsed, _ in post if elapsed <= pre_p99),
        None,
    )
    warm_hits = sum(1 for _, _, d in post if d in _WARM_DISPOSITIONS)
    stats = cache.storage_stats
    result = ArmResult(
        label=label,
        storage=storage,
        hostile_disk=hostile_disk,
        crash_at_ms=crash_at,
        reads_pre=reads_pre,
        reads_post=len(post),
        pre_p50_ms=percentile(pre_latencies, 50),
        pre_p99_ms=pre_p99,
        post_hit_ratio=warm_hits / len(post) if post else 0.0,
        post_warm_hits=warm_hits,
        restart_to_p99_ms=restart_to_p99,
        post_mean_ms=(
            sum(e for _, e, _ in post) / len(post) if post else 0.0
        ),
        wrong_bytes_served=wrong,
        dispositions=dict(dispositions),
        demotions=stats.demotions if stats else 0,
        promotions=stats.promotions if stats else 0,
        recovered_entries=stats.recovered_entries if stats else 0,
        recovered_promotions=stats.recovered_promotions if stats else 0,
        corrupt_records_recovered=(
            stats.corrupt_records_recovered if stats else 0
        ),
        dropped_records=stats.dropped_records if stats else 0,
        write_failures=stats.write_failures if stats else 0,
        fallback_skips=stats.fallback_skips if stats else 0,
        breaker_trips=stats.breaker_trips if stats else 0,
        breaker_closes=stats.breaker_closes if stats else 0,
    )
    # Release the tier's segment descriptors and temporary directory.
    cache.shutdown()
    return result


FULL = dict(n_docs=18, crash_at=3_000.0, rounds_post=8)
SMOKE = dict(n_docs=9, crash_at=1_500.0, rounds_post=4)

RESTART_COLUMNS = (
    ("arm", "label"),
    ("storage", "storage"),
    ("hostile disk", "hostile_disk"),
    ("pre reads", "reads_pre"),
    ("post reads", "reads_post"),
    ("pre p99 ms", "pre_p99_ms"),
    ("post hit ratio", fmt("post_hit_ratio", ".0%")),
    ("restart→p99 ms", fmt("restart_to_p99_ms", ".0f")),
    ("post mean ms", "post_mean_ms"),
    ("wrong bytes", "wrong_bytes_served"),
)

TIER_COLUMNS = (
    ("arm", "label"),
    ("demoted", "demotions"),
    ("promoted", "promotions"),
    ("recovered", "recovered_entries"),
    ("rec-promoted", "recovered_promotions"),
    ("corrupt-dropped", "corrupt_records_recovered"),
    ("dropped", "dropped_records"),
    ("write fails", "write_failures"),
    ("fallback skips", "fallback_skips"),
    ("trips", "breaker_trips"),
    ("closes", "breaker_closes"),
)


def main(smoke: bool = False) -> None:
    """Print the A18 persistence tables and write ``BENCH_A18.json``."""
    size = SMOKE if smoke else FULL
    cold = run_arm(False, label="cold", **size)
    warm = run_arm(True, label="warm", **size)
    chaos = run_arm(True, hostile_disk=True, label="diskchaos", **size)
    arms = (cold, warm, chaos)
    print(
        table(
            arms,
            RESTART_COLUMNS,
            title=(
                "A18a. Restart recovery, cold vs warm vs hostile disk "
                f"(crash at {cold.crash_at_ms:.0f}ms virtual; warm "
                "hit = served without a full backing fetch)"
            ),
        )
    )
    print()
    print(
        table(
            [arm for arm in arms if arm.storage],
            TIER_COLUMNS,
            title=(
                "A18b. Durable-tier accounting (recovered entries are "
                "verifier-gated on first serve; corrupt records are "
                "CRC-dropped at recovery, never served)"
            ),
        )
    )
    write_artifact(
        "a18",
        {
            "smoke": smoke,
            "arms": arms,
            "headline": {
                "warm_hits": warm.post_warm_hits,
                "cold_post_hit_ratio": cold.post_hit_ratio,
                "warm_post_hit_ratio": warm.post_hit_ratio,
                "warm_beats_cold": warm.post_hit_ratio > cold.post_hit_ratio,
                "recovered_promotions": warm.recovered_promotions,
                "corrupt_records_recovered": chaos.corrupt_records_recovered,
                "fallback_skips": chaos.fallback_skips,
                "wrong_bytes_served": sum(a.wrong_bytes_served for a in arms),
            },
        },
        seed=_SEED,
    )

