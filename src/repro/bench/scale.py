"""A20: million-entry churn shootout — replacement policies at scale.

The question the virtual-time benches cannot answer: does a catalog of
10^6 documents under publish/perish churn stay inside a bounded
resident set, and how do the replacement policies (GDS, GDSF, LRU, and
the reinforced-counter policy) compare when the entry table is large
and the working set keeps shifting?  This is the one experiment that
reads the wall clock, because it is a policy comparison at a size where
the interpreter's own cost per eviction decides the ranking — it is not
a timer: what a hit, a late bus subscriber or an emit costs is measured
by ``perfbench`` (``hot_hits``, ``probe.cache.hit_us.extra_subscriber``)
with calibration and pairs.

Three arms:

* ``churn`` — one :class:`~repro.workload.churn.ChurnCatalog` per
  policy, lazily materialized by a shared churn trace with flash
  crowds and a day/night cycle.  Open loop: the driver never sleeps;
  think times advance only the virtual clock.  Reports wall reads/sec,
  wall p50/p99 per read, hit ratio, evictions, and how many documents
  the trace actually forced into existence.
* ``allocation`` — ``sys.getallocatedblocks`` under a disabled GC
  reports net heap blocks per steady-state hit on a small fully-cached
  corpus (the budget ``tests/unit/test_perf_budget.py`` pins).
* ``rss`` — ``ru_maxrss`` snapshots bracketing the arms; the final
  reading is the run's peak and is what CI gates.

CI runs ``--smoke`` and fails on the allocation budget, an RSS ceiling
or a missing churn arm (see ``.github/workflows/ci.yml``).  The full run
drives the 10^6-document catalog; the smoke run shrinks every axis but
exercises the same code.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from time import perf_counter

from repro.bench.harness import (
    fmt,
    percentile,
    record,
    table,
    write_artifact,
)
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

__all__ = [
    "ChurnArmResult",
    "run_allocation_probe",
    "run_churn_shootout",
    "main",
    "CHURN_POLICIES",
]

_SEED = 61

#: Shootout lineup: the two cost-aware paper policies, the classic
#: baseline, and the reinforced-counter policy added for this arm.
CHURN_POLICIES = ("gds", "gdsf", "lru", "rc")


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


def run_allocation_probe(n_documents: int = 64) -> float:
    """Net heap blocks per steady-state hit."""
    kernel = PlacelessKernel()
    owner = kernel.create_user("owner")
    catalog = ChurnCatalog(
        kernel, owner, CorpusSpec(n_documents=n_documents, seed=_SEED)
    )
    cache = DocumentCache(kernel, capacity_bytes=1 << 30, name="a20-hot")
    references = [d.reference for d in catalog.materialize_all()]
    for reference in references:  # warm: every later read is a hit
        cache.read(reference)
    rng = random.Random(_SEED + 2)

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


FULL = dict(
    probe_documents=64,
    churn=dict(n_documents=1_000_000, n_events=300_000, zipf_alpha=1.1),
)
SMOKE = dict(
    probe_documents=32,
    churn=dict(n_documents=5_000, n_events=4_000, zipf_alpha=0.9),
)

COLUMNS = (
    ("policy", "policy"),
    ("reads", "reads"),
    ("reads/s", fmt("reads_per_sec", ",.0f")),
    ("p50 µs", fmt("wall_p50_us", ".1f")),
    ("p99 µs", fmt("wall_p99_us", ".1f")),
    ("hit ratio", fmt("hit_ratio", ".3f")),
    ("evict", "evictions"),
    ("docs built", "materialized"),
    ("rss MiB", lambda r: f"{r.rss_after_kb / 1024.0:,.0f}"),
)


def _rounded(row: dict) -> dict:
    """Wall-clock floats carry noise, not digits: keep four decimals."""
    return {
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in row.items()
    }


def main(smoke: bool = False) -> None:
    """Run the arms, print the table, write ``BENCH_A20.json``."""
    size = SMOKE if smoke else FULL
    blocks_per_hit = run_allocation_probe(size["probe_documents"])
    churn = run_churn_shootout(**size["churn"])
    print(f"allocation probe: {blocks_per_hit:.1f} heap blocks per hit")
    print("\nA20 churn shootout (identical trace per policy)")
    print(table(churn, COLUMNS))
    peak_kb = peak_rss_kb()
    print(f"\npeak RSS: {peak_kb / 1024.0:,.0f} MiB\n")
    write_artifact(
        "a20",
        {
            "smoke": smoke,
            "blocks_per_hit": round(blocks_per_hit, 2),
            "churn": {r.policy: _rounded(record(r)) for r in churn},
            "catalog_documents": size["churn"]["n_documents"],
            "peak_rss_kb": round(peak_kb, 1),
        },
        seed=_SEED,
    )

