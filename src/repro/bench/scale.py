"""A20: million-entry churn workloads and hot-path raw speed.

Two questions the virtual-time benches cannot answer:

1. **Raw speed** — how many reads per *wall-clock* second does the
   cache sustain on its hit path, and what does an operator pay for
   attaching a probe to the instrumentation bus (the subscriber tax)?
2. **Scale** — does a catalog of 10^6 documents under publish/perish
   churn stay inside a bounded resident set, and how do the
   replacement policies (GDS, GDSF, LRU, and the reinforced-counter
   policy) compare when the entry table is large and the working set
   keeps shifting?

Three arms:

* ``hotpath`` — a small fully-cached corpus hammered with Zipf reads,
  once ``plain`` and once ``subscribed`` (a no-op catch-all subscriber
  attached after construction, so every per-hit event is materialised
  for it).  The two drivers are byte-identical loops, so subscribed ÷
  plain reads/sec is the subscriber tax.  An allocation probe
  (``sys.getallocatedblocks`` under a disabled GC) reports net heap
  blocks per hit.
* ``churn`` — one :class:`~repro.workload.churn.ChurnCatalog` per
  policy, lazily materialized by a shared churn trace with flash
  crowds and a day/night cycle.  Open loop: the driver never sleeps;
  think times advance only the virtual clock.  Reports wall reads/sec,
  wall p50/p99 per read, hit ratio, evictions, and how many documents
  the trace actually forced into existence.
* ``rss`` — ``ru_maxrss`` snapshots bracketing the arms; the final
  reading is the run's peak and is what CI gates.

CI runs ``--smoke`` and fails on a reads/sec floor, a subscriber-tax
floor, an allocation budget, or an RSS ceiling (see
``.github/workflows/ci.yml``).  The full run drives the 10^6-document
catalog; the smoke run shrinks every axis but exercises the same code.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from time import perf_counter

from repro.bench.harness import format_table, percentile, write_artifact
from repro.bench.perf import allocation_probe, peak_rss_kb
from repro.cache.manager import DocumentCache
from repro.cache.replacement import make_policy
from repro.placeless.kernel import PlacelessKernel
from repro.workload.churn import (
    ChurnCatalog,
    ChurnEventKind,
    ChurnSpec,
    generate_churn,
)
from repro.workload.documents import CorpusSpec
from repro.workload.trace import zipf_indices

__all__ = [
    "HotPathResult",
    "ChurnArmResult",
    "run_hotpath",
    "run_churn_shootout",
    "main",
    "CHURN_POLICIES",
]

_SEED = 61

#: Shootout lineup: the two cost-aware paper policies, the classic
#: baseline, and the reinforced-counter policy added for this arm.
CHURN_POLICIES = ("gds", "gdsf", "lru", "rc")


@dataclass
class HotPathResult:
    """One hot-path arm: the same read loop, plain or subscribed."""

    arm: str
    reads: int
    wall_seconds: float
    reads_per_sec: float
    hit_ratio: float
    wall_p50_us: float
    wall_p99_us: float


@dataclass
class ChurnArmResult:
    """One policy's run over the shared churn trace."""

    policy: str
    events: int
    reads: int
    wall_seconds: float
    reads_per_sec: float
    hit_ratio: float
    wall_p50_us: float
    wall_p99_us: float
    evictions: int
    materialized: int
    rss_after_kb: float


def _hotpath_world(n_documents: int, *, subscribed: bool = False):
    """A fully-cacheable corpus behind a fresh default cache, optionally
    with a late no-op catch-all subscriber on its bus."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(
        kernel, owner, CorpusSpec(n_documents=n_documents, seed=_SEED)
    )
    corpus = catalog.materialize_all()
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        name=f"a20-hot-{'subscribed' if subscribed else 'plain'}",
    )
    if subscribed:
        cache.instrumentation.subscribe(lambda event: None)
    return cache, corpus


#: Reads given per-read lap timing for percentiles.  Kept separate
#: from the throughput loop: two extra ``perf_counter`` calls per read
#: are a fixed tax that flattens the plain/subscribed ratio.
_LATENCY_SAMPLE = 20_000


def _drive_reads(cache, corpus, trace) -> tuple[float, array]:
    """Replay *trace*; return (throughput-loop seconds, sampled lap µs).

    Two passes over the same reference sequence: a tight loop timed as
    a whole (the reads/sec number), then a lap-timed sample for
    p50/p99.  Both arms of the hot-path comparison run the identical
    driver, so the ratio is the cache's, not the harness's.
    """
    references = [corpus[index].reference for index in trace]
    read = cache.read
    started = perf_counter()
    for reference in references:
        read(reference)
    wall = perf_counter() - started
    laps = array("d")
    for reference in references[:_LATENCY_SAMPLE]:
        lap = perf_counter()
        read(reference)
        laps.append((perf_counter() - lap) * 1e6)
    return wall, laps


def run_hotpath(
    n_documents: int = 256,
    n_reads: int = 200_000,
    zipf_alpha: float = 0.8,
) -> list[HotPathResult]:
    """Plain vs. late-subscribed cache on an all-hits workload."""
    trace = zipf_indices(n_documents, n_reads, zipf_alpha, seed=_SEED + 1)
    results = []
    for arm in ("plain", "subscribed"):
        cache, corpus = _hotpath_world(
            n_documents, subscribed=arm == "subscribed"
        )
        for document in corpus:  # warm: every subsequent read is a hit
            cache.read(document.reference)
        wall, laps = _drive_reads(cache, corpus, trace)
        results.append(
            HotPathResult(
                arm=arm,
                reads=n_reads,
                wall_seconds=wall,
                reads_per_sec=n_reads / wall,
                hit_ratio=cache.stats.hit_ratio,
                wall_p50_us=percentile(laps, 50.0),
                wall_p99_us=percentile(laps, 99.0),
            )
        )
    return results


def run_allocation_probe(n_documents: int = 64) -> float:
    """Net heap blocks per steady-state hit."""
    cache, corpus = _hotpath_world(n_documents)
    for document in corpus:
        cache.read(document.reference)
    rng = random.Random(_SEED + 2)
    references = [document.reference for document in corpus]

    def one_hit() -> None:
        cache.read(references[rng.randrange(len(references))])

    return allocation_probe(one_hit, iterations=256, warmup=64)


def _churn_capacity(catalog: ChurnCatalog, fraction: float) -> int:
    total = sum(catalog.size_of(index) for index in range(len(catalog)))
    return max(1 << 20, int(total * fraction))


def run_churn_shootout(
    policies: tuple[str, ...] = CHURN_POLICIES,
    n_documents: int = 1_000_000,
    n_events: int = 300_000,
    capacity_fraction: float = 0.02,
    zipf_alpha: float = 1.1,
) -> list[ChurnArmResult]:
    """Replay one churn trace per policy over a lazily-built catalog.

    Every policy sees an identical trace (same :class:`ChurnSpec`
    seed): publish/perish churn, a rare flash crowd, and a day/night
    think-time cycle.  The catalog materializes documents only when
    the trace first touches them, which is what keeps a 10^6-document
    run inside a bounded resident set.
    """
    spec = ChurnSpec(
        n_events=n_events,
        n_documents=n_documents,
        n_live_start=n_documents,
        n_users=4,
        zipf_alpha=zipf_alpha,
        p_write=0.02,
        p_publish=0.0,  # catalog starts fully live; perish-only churn
        p_perish=0.002,
        p_flash=0.0005,
        flash_duration=400,
        flash_share=0.6,
        cycle_period=max(1, n_events // 8),
        day_fraction=0.7,
        night_think_factor=4.0,
        mean_think_time_ms=1.0,
        seed=_SEED,
    )
    results = []
    for policy_name in policies:
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        catalog = ChurnCatalog(
            kernel, owner, CorpusSpec(n_documents=n_documents, seed=_SEED)
        )
        cache = DocumentCache(
            kernel,
            capacity_bytes=_churn_capacity(catalog, capacity_fraction),
            policy=make_policy(policy_name, seed=_SEED),
            name=f"a20-{policy_name}",
        )
        clock = kernel.ctx.clock
        laps = array("d")
        events = reads = 0
        started = perf_counter()
        for event in generate_churn(spec):
            events += 1
            if event.think_time_ms:
                clock.advance(event.think_time_ms)
            if event.kind is ChurnEventKind.READ:
                reference = catalog.document(event.document_index).reference
                lap = perf_counter()
                cache.read(reference)
                laps.append((perf_counter() - lap) * 1e6)
                reads += 1
            elif event.kind is ChurnEventKind.WRITE:
                reference = catalog.document(event.document_index).reference
                cache.write(reference, b"churn-update-%d" % event.detail)
            elif event.kind is ChurnEventKind.PERISH:
                document = catalog.peek(event.document_index)
                if document is not None:
                    cache.invalidate_document(
                        document.reference.base.document_id
                    )
            # PUBLISH is bookkeeping only: the catalog materializes the
            # newcomer lazily when a later READ first touches it.
        wall = perf_counter() - started
        results.append(
            ChurnArmResult(
                policy=policy_name,
                events=events,
                reads=reads,
                wall_seconds=wall,
                reads_per_sec=reads / wall if wall else 0.0,
                hit_ratio=cache.stats.hit_ratio,
                wall_p50_us=percentile(laps, 50.0),
                wall_p99_us=percentile(laps, 99.0),
                evictions=cache.stats.evictions,
                materialized=catalog.materialized_count,
                rss_after_kb=peak_rss_kb(),
            )
        )
    return results


def _format_hotpath(results: list[HotPathResult]) -> str:
    rows = [
        [
            r.arm,
            f"{r.reads}",
            f"{r.reads_per_sec:,.0f}",
            f"{r.wall_p50_us:.1f}",
            f"{r.wall_p99_us:.1f}",
            f"{r.hit_ratio:.3f}",
        ]
        for r in results
    ]
    return format_table(
        ["arm", "reads", "reads/s", "p50 µs", "p99 µs", "hit ratio"], rows
    )


def _format_churn(results: list[ChurnArmResult]) -> str:
    rows = [
        [
            r.policy,
            f"{r.reads}",
            f"{r.reads_per_sec:,.0f}",
            f"{r.wall_p50_us:.1f}",
            f"{r.wall_p99_us:.1f}",
            f"{r.hit_ratio:.3f}",
            f"{r.evictions}",
            f"{r.materialized}",
            f"{r.rss_after_kb / 1024.0:,.0f}",
        ]
        for r in results
    ]
    return format_table(
        [
            "policy",
            "reads",
            "reads/s",
            "p50 µs",
            "p99 µs",
            "hit ratio",
            "evict",
            "docs built",
            "rss MiB",
        ],
        rows,
    )


def main(smoke: bool = False) -> None:
    """Run all three arms, print the tables, write ``BENCH_A20.json``."""
    if smoke:
        hot = run_hotpath(n_documents=128, n_reads=60_000)
        blocks_per_hit = run_allocation_probe(n_documents=32)
        churn = run_churn_shootout(
            n_documents=5_000, n_events=4_000, zipf_alpha=0.9
        )
    else:
        hot = run_hotpath()
        blocks_per_hit = run_allocation_probe()
        churn = run_churn_shootout()

    plain, subscribed = hot
    subscriber_tax = subscribed.reads_per_sec / plain.reads_per_sec

    print("A20 hot path: plain vs. one late catch-all subscriber")
    print(_format_hotpath(hot))
    print(f"\nsubscriber tax: {subscriber_tax:.2f} of plain reads/s")
    print(f"allocation probe: {blocks_per_hit:.1f} heap blocks per hit")
    print("\nA20 churn shootout (identical trace per policy)")
    print(_format_churn(churn))
    peak_kb = peak_rss_kb()
    print(f"\npeak RSS: {peak_kb / 1024.0:,.0f} MiB")

    metrics = {
        "smoke": smoke,
        "hotpath": {
            r.arm: {
                "reads": r.reads,
                "wall_seconds": round(r.wall_seconds, 4),
                "reads_per_sec": round(r.reads_per_sec, 1),
                "hit_ratio": round(r.hit_ratio, 4),
                "wall_p50_us": round(r.wall_p50_us, 2),
                "wall_p99_us": round(r.wall_p99_us, 2),
            }
            for r in hot
        },
        "subscriber_tax": round(subscriber_tax, 3),
        "blocks_per_hit": round(blocks_per_hit, 2),
        "churn": {
            r.policy: {
                "events": r.events,
                "reads": r.reads,
                "wall_seconds": round(r.wall_seconds, 4),
                "reads_per_sec": round(r.reads_per_sec, 1),
                "hit_ratio": round(r.hit_ratio, 4),
                "wall_p50_us": round(r.wall_p50_us, 2),
                "wall_p99_us": round(r.wall_p99_us, 2),
                "evictions": r.evictions,
                "materialized": r.materialized,
                "rss_after_kb": round(r.rss_after_kb, 1),
            }
            for r in churn
        },
        "catalog_documents": 5_000 if smoke else 1_000_000,
        "peak_rss_kb": round(peak_kb, 1),
    }
    path = write_artifact("a20", metrics, seed=_SEED)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
