"""A19: overload robustness — deadlines, load shedding, hedged reads.

The overload layer (DESIGN.md §3.6) protects the read path at three
seams: end-to-end deadline budgets charged against the virtual clock,
an admission controller (token bucket + CoDel-style sojourn) shedding
the lowest QoS class first, and gray-shard hedged reads in the cluster.
This bench measures each knob where it matters:

* **Offered-load sweep** — open-loop waves of personalized cold misses
  at multiples of the admission rate, with the policy off, deadlines
  only, then deadlines + shedding.  Per arm: goodput (reads completed
  within the 250 ms deadline target per virtual second, measured from
  each wave's arrival instant), shed ratio and wave-relative p99.  The
  acceptance criterion: at 2× saturation the shedding arm's goodput
  stays within 10 % of the sweep's peak, while the unprotected arm
  collapses under its own backlog.
* **Gray-shard arm** — a two-shard cluster under ``--faults grayshard``
  chaos (one shard's fetches burn 150 extra virtual ms, erroring
  never), hedging off then on.  The acceptance criterion: hedging cuts
  in-window p99 by ≥ 3×, wins hedges, serves zero wrong bytes and
  records zero deadline violations.

The run writes ``BENCH_A19.json`` through the shared artifact writer;
CI's overload job fails the build when the 2× shedding arm sheds
nothing, the gray-shard arm wins no hedges, or any deadline violation
or wrong byte is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import (
    fmt,
    mean,
    percentile,
    table,
    write_artifact,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultOverloadPolicy
from repro.cluster import CacheCluster
from repro.errors import DeadlineExceededError, OverloadShedError
from repro.faults.scenarios import grayshard_chaos_scenario
from repro.placeless.kernel import PlacelessKernel
from repro.sim.scheduler import drive
from repro.workload.documents import CorpusSpec, build_corpus
from repro.workload.users import build_population

__all__ = [
    "LoadResult",
    "GrayShardResult",
    "run_load",
    "run_sweep",
    "run_grayshard",
    "main",
]

_SEED = 59

#: The sweep's end-to-end latency target (the paper's "access time
#: < .25 seconds" promise); goodput counts reads finishing inside it.
_DEADLINE_TARGET_MS = 250.0

#: One wave of arrivals per virtual second.
_WAVE_INTERVAL_MS = 1_000.0

#: Admission rate for the shedding arm, set just under the workload's
#: measured service capacity (~125 cold personalized misses per virtual
#: second on the nfs-only corpus) the way an operator would tune it.
_ADMISSION_RATE_PER_S = 100.0

_ARMS = ("off", "deadlines", "shed")


def _policy_for(arm: str) -> DefaultOverloadPolicy | None:
    if arm == "off":
        return None
    if arm == "deadlines":
        return DefaultOverloadPolicy(shedding=False, hedging=False)
    if arm == "shed":
        return DefaultOverloadPolicy(
            hedging=False, admission_rate_per_s=_ADMISSION_RATE_PER_S
        )
    raise ValueError(f"unknown arm: {arm!r}")


def _light_corpus_spec(n_documents: int, seed: int) -> CorpusSpec:
    """Small nfs-backed documents: a cold personalized miss costs ~8
    virtual ms, so the 250 ms target spans a meaningful queue and the
    gray shard's +150 ms stands clear of the fetch noise."""
    return CorpusSpec(
        n_documents=n_documents,
        repository_mix=(("nfs", 1.0),),
        size_mu=7.0,
        size_sigma=0.5,
        max_size=8_192,
        ttl_ms=3_600_000.0,
        seed=seed,
    )


@dataclass
class LoadResult:
    """Metrics of one (offered load, policy arm) open-loop run."""

    arm: str
    offered_per_s: float
    n_users: int
    n_documents: int
    n_waves: int
    offered: int
    completed: int
    within_deadline: int
    shed: int
    deadline_errors: int
    stale_serves: int
    mean_ms: float
    p50_ms: float
    p99_ms: float

    @property
    def goodput_per_s(self) -> float:
        """Reads completed within the target, per virtual second."""
        duration_s = self.n_waves * _WAVE_INTERVAL_MS / 1_000.0
        return self.within_deadline / duration_s if duration_s else 0.0

    @property
    def shed_ratio(self) -> float:
        """Fraction of offered reads refused by admission."""
        return self.shed / self.offered if self.offered else 0.0


def run_load(
    n_users: int,
    arm: str,
    n_documents: int = 4,
    n_waves: int = 8,
    seed: int = _SEED,
) -> LoadResult:
    """One open-loop arm: waves of personalized cold misses.

    Every wave invalidates the corpus and mutates each source out of
    band, then lands one read per (user, document) pair — all arrivals
    stamped at the wave instant, served in sequence, so each read's
    wave-relative latency includes the queueing delay in front of it.
    A wave whose service outruns the interval leaves a backlog the next
    wave inherits; that metastable pile-up is exactly what the
    admission controller exists to cut short.
    """
    kernel = PlacelessKernel()
    clock = kernel.ctx.clock
    owner = kernel.create_user("owner")
    corpus = build_corpus(kernel, owner, _light_corpus_spec(n_documents, seed))
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=1.0, seed=seed
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        overload_policy=_policy_for(arm),
        name=f"a19-{arm}-{n_users}",
    )
    offered = completed = within = shed = deadline_errors = stale = 0
    latencies: list[float] = []
    start_ms = clock.now_ms
    for wave in range(n_waves):
        arrival_ms = start_ms + wave * _WAVE_INTERVAL_MS
        if clock.now_ms < arrival_ms:
            clock.advance(arrival_ms - clock.now_ms)
        for document_index, document in enumerate(corpus):
            cache.invalidate_document(document.reference.base.document_id)
            document.provider.mutate_out_of_band(
                f"wave {wave} document {document_index}".encode() * 24
            )
        for user_index in range(n_users):
            for document_index in range(n_documents):
                reference = population.reference(user_index, document_index)
                offered += 1
                try:
                    # Back-date the arrival to the wave instant so the
                    # sojourn gate and the deadline budget both see the
                    # queueing delay, exactly as read_many batches do.
                    outcome = drive(
                        cache.iterate_read(
                            reference,
                            concurrent=False,
                            enqueued_ms=arrival_ms,
                        )
                    )
                except OverloadShedError:
                    shed += 1
                    continue
                except DeadlineExceededError:
                    deadline_errors += 1
                    continue
                finally:
                    cache.drain_prefetch()
                completed += 1
                if outcome.disposition == "stale-on-error":
                    stale += 1
                latency_ms = clock.now_ms - arrival_ms
                latencies.append(latency_ms)
                if latency_ms <= _DEADLINE_TARGET_MS:
                    within += 1
    return LoadResult(
        arm=arm,
        offered_per_s=(
            n_users * n_documents / (_WAVE_INTERVAL_MS / 1_000.0)
        ),
        n_users=n_users,
        n_documents=n_documents,
        n_waves=n_waves,
        offered=offered,
        completed=completed,
        within_deadline=within,
        shed=shed,
        deadline_errors=deadline_errors,
        stale_serves=stale,
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
    )


def run_sweep(
    user_counts: tuple[int, ...] = (6, 12, 25, 50),
    n_documents: int = 4,
    n_waves: int = 8,
    seed: int = _SEED,
) -> list[LoadResult]:
    """The A19 sweep: every offered level under each policy arm."""
    return [
        run_load(
            n_users, arm,
            n_documents=n_documents, n_waves=n_waves, seed=seed,
        )
        for n_users in user_counts
        for arm in _ARMS
    ]


@dataclass
class GrayShardResult:
    """Metrics of one gray-shard cluster run (hedging off or on)."""

    hedging: bool
    reads: int
    window_reads: int
    hedges_launched: int
    hedges_won: int
    hedges_lost: int
    deadline_violations: int
    wrong_bytes_served: int
    gray_slow_fetches: int
    mean_ms: float
    p99_ms: float
    window_p99_ms: float


def run_grayshard(
    hedging: bool,
    n_documents: int = 8,
    n_users: int = 8,
    n_rounds: int = 20,
    seed: int = _SEED,
) -> GrayShardResult:
    """Paced reads against a two-shard cluster with one gray shard.

    The grayshard chaos scenario slows every fetch through ``cluster-0``
    by 150 virtual ms inside its window, without a single error — the
    failure mode breakers cannot see.  Each round invalidates two
    rotating documents cluster-wide (a steady trickle of misses on both
    shards) and lands one paced read per (user, document) pair.
    Sources never mutate, so every byte ever served must equal the
    first bytes seen for that reference — the wrong-bytes gate.
    """
    kernel = PlacelessKernel()
    ctx = kernel.ctx
    ctx.faults = grayshard_chaos_scenario(
        ctx.clock, seed=seed, duration_ms=120_000.0
    )
    window_start_ms = 2_000.0
    window_end_ms = window_start_ms + 120_000.0
    cluster = CacheCluster(
        kernel,
        2,
        capacity_bytes=1 << 30,
        # min_samples=4 keeps the detection bootstrap (the gray fetches
        # that must land before the EWMA can classify) to a handful of
        # slow reads, well under the in-window p99 rank.
        overload_policy=DefaultOverloadPolicy(
            hedging=hedging, health_min_samples=4
        ),
    )
    owner = kernel.create_user("owner")
    corpus = build_corpus(kernel, owner, _light_corpus_spec(n_documents, seed))
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=0.0, seed=seed
    )
    references = [
        population.reference(user_index, document_index)
        for user_index in range(n_users)
        for document_index in range(n_documents)
    ]
    expected: dict[int, bytes] = {}
    wrong = 0
    latencies: list[float] = []
    window_latencies: list[float] = []
    for rnd in range(n_rounds):
        for offset in range(2):
            document = corpus[(2 * rnd + offset) % n_documents]
            cluster.invalidate_document(document.reference.base.document_id)
        for index, reference in enumerate(references):
            # ~125 paced requests/s, inside the default admission rate.
            ctx.clock.charge(8.0)
            outcome = cluster.read(reference)
            latencies.append(outcome.elapsed_ms)
            if window_start_ms <= ctx.clock.now_ms <= window_end_ms:
                window_latencies.append(outcome.elapsed_ms)
            first = expected.setdefault(index, outcome.content)
            if outcome.content != first:
                wrong += 1
    stats = cluster.overload_stats
    assert stats is not None
    assert ctx.faults is not None
    return GrayShardResult(
        hedging=hedging,
        reads=len(latencies),
        window_reads=len(window_latencies),
        hedges_launched=stats.hedges_launched,
        hedges_won=stats.hedges_won,
        hedges_lost=stats.hedges_lost,
        deadline_violations=stats.deadline_violations,
        wrong_bytes_served=wrong,
        gray_slow_fetches=ctx.faults.stats.gray_slow_fetches,
        mean_ms=mean(latencies),
        p99_ms=percentile(latencies, 99),
        window_p99_ms=percentile(window_latencies, 99),
    )


FULL = dict(
    sweep=dict(user_counts=(6, 12, 25, 50), n_waves=8),
    grayshard=dict(n_rounds=20),
)
SMOKE = dict(
    sweep=dict(user_counts=(25, 50), n_waves=4),
    grayshard=dict(n_rounds=16),
)

SWEEP_COLUMNS = (
    ("offered/s", fmt("offered_per_s", ".0f")),
    ("arm", "arm"),
    ("offered", "offered"),
    ("ok", "completed"),
    ("in-ddl", "within_deadline"),
    ("shed", "shed"),
    ("goodput/s", fmt("goodput_per_s", ".0f")),
    ("shed%", lambda r: f"{100 * r.shed_ratio:.0f}"),
    ("p50 ms", "p50_ms"),
    ("p99 ms", "p99_ms"),
)

GRAYSHARD_COLUMNS = (
    ("hedging", "hedging"),
    ("reads", "reads"),
    ("hedges", "hedges_launched"),
    ("won", "hedges_won"),
    ("p99 ms", "p99_ms"),
    ("window p99 ms", "window_p99_ms"),
    ("violations", "deadline_violations"),
    ("wrong bytes", "wrong_bytes_served"),
)


def main(smoke: bool = False) -> None:
    """Print the A19 tables and write ``BENCH_A19.json``."""
    size = SMOKE if smoke else FULL
    sweep = run_sweep(**size["sweep"])
    print(
        table(
            sweep,
            SWEEP_COLUMNS,
            title=(
                "A19. Overload sweep: open-loop waves of personalized "
                "cold misses (wave-relative latency vs the "
                f"{_DEADLINE_TARGET_MS:.0f} ms target)"
            ),
        )
    )
    gray_off = run_grayshard(False, **size["grayshard"])
    gray_on = run_grayshard(True, **size["grayshard"])
    ratio = (
        gray_off.window_p99_ms / gray_on.window_p99_ms
        if gray_on.window_p99_ms
        else 0.0
    )
    print(
        table(
            (gray_off, gray_on),
            GRAYSHARD_COLUMNS,
            title=(
                "A19. Gray shard: two-shard cluster, cluster-0 fetches "
                f"+150 ms in-window (p99 ratio off/on = {ratio:.1f}x)"
            ),
        )
    )
    peak = max(r.goodput_per_s for r in sweep if r.arm == "shed")
    most_users = max(r.n_users for r in sweep)
    at_2x = next(
        r for r in sweep if r.arm == "shed" and r.n_users == most_users
    )
    off_2x = next(
        r for r in sweep if r.arm == "off" and r.n_users == most_users
    )
    write_artifact(
        "a19",
        {
            "sweep": sweep,
            "grayshard": (gray_off, gray_on),
            "headline": {
                "peak_goodput_per_s": peak,
                "goodput_at_2x_shed": at_2x.goodput_per_s,
                "goodput_at_2x_off": off_2x.goodput_per_s,
                "goodput_2x_fraction_of_peak": (
                    at_2x.goodput_per_s / peak if peak else 0.0
                ),
                "shed_ratio_at_2x": at_2x.shed_ratio,
                "gray_p99_ratio": ratio,
                "hedges_won": gray_on.hedges_won,
                "deadline_violations": (
                    gray_off.deadline_violations
                    + gray_on.deadline_violations
                ),
                "wrong_bytes_served": (
                    gray_off.wrong_bytes_served + gray_on.wrong_bytes_served
                ),
            },
            "smoke": smoke,
        },
        seed=_SEED,
    )

