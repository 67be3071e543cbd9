"""A16: single-flight coalescing — stampede cost, chain executions per key.

The async read path (DESIGN.md §3.3) lets N concurrent misses on one
hot key land at the provider simultaneously; single-flight coalescing
elects one leader per ``(source signature, chain fingerprint)`` key and
parks every follower on its flight.  This bench drives open-loop waves
of cold stampedes — every wave invalidates the hot documents and
mutates their sources out of band, so each (document, wave) pair is one
*distinct* coalescing key — and reports, with coalescing off then on:

* chain executions per distinct key (the acceptance criterion: → 1.0
  under a 32-way stampede with coalescing on; = wave width without it);
* fetches saved (followers answered from the leader's fill) and the
  flight-table accounting (flights led, follows, promotions);
* virtual read latency mean/p50/p99 — a follower's latency includes its
  wait on the leader, the price of coalescing.  (What a batched read
  costs the simulator on the wall clock is perfbench's
  ``probe.sim.scheduler.read_many_us_per_read.*``.)

The run writes ``BENCH_A16.json`` through the shared artifact writer;
CI's concurrency job fails the build when the coalesced stampede saves
zero fetches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import (
    mean,
    percentile,
    shared_chain_world,
    table,
    write_artifact,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultConcurrencyPolicy, DefaultMemoPolicy

__all__ = ["StampedeResult", "run_stampede", "run_sweep", "main"]

_SEED = 47


@dataclass
class StampedeResult:
    """Metrics of one (wave width, coalescing on/off) stampede run."""

    wave_width: int
    n_documents: int
    n_waves: int
    coalesce: bool
    reads: int
    distinct_keys: int
    chain_executions: int
    flights_led: int
    follows: int
    promotions: int
    fetches_saved: int
    mean_ms: float
    p50_ms: float
    p99_ms: float

    @property
    def chain_executions_per_key(self) -> float:
        """Chain runs per distinct (source, fingerprint) key (ideal 1.0)."""
        if not self.distinct_keys:
            return 0.0
        return self.chain_executions / self.distinct_keys


def run_stampede(
    wave_width: int,
    coalesce: bool,
    n_documents: int = 4,
    n_waves: int = 5,
    seed: int = _SEED,
) -> StampedeResult:
    """Open-loop waves of cold cross-user stampedes on a hot corpus.

    Each wave: invalidate every hot document and mutate its source out
    of band (one fresh coalescing key per document per wave), then land
    ``wave_width`` reads per document in a single concurrent batch —
    every arrival in the wave is in the pipeline before any fill
    completes, the open-loop regime a closed feedback loop never
    reaches.  Both arms run as interleaved batches with the memo
    on; only the ``coalesce`` flag differs, so the delta is the
    single-flight machinery alone.
    """
    kernel, corpus, population = shared_chain_world(
        n_documents, wave_width, seed
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        concurrency_policy=DefaultConcurrencyPolicy(coalesce=coalesce),
        memo_policy=DefaultMemoPolicy(),
        name=f"a16-{wave_width}-{'on' if coalesce else 'off'}",
    )
    reads_before = kernel.stats.reads
    latencies: list[float] = []
    for wave in range(n_waves):
        for document_index, document in enumerate(corpus):
            cache.invalidate_document(
                document.reference.base.document_id
            )
            document.provider.mutate_out_of_band(
                f"wave {wave} document {document_index}".encode() * 32
            )
        references = [
            population.reference(user_index, document_index)
            for user_index in range(wave_width)
            for document_index in range(n_documents)
        ]
        for outcome in cache.read_many(references):
            latencies.append(outcome.elapsed_ms)
    stats = cache.concurrency_stats
    assert stats is not None
    return StampedeResult(
        wave_width=wave_width,
        n_documents=n_documents,
        n_waves=n_waves,
        coalesce=coalesce,
        reads=len(latencies),
        distinct_keys=n_documents * n_waves,
        chain_executions=kernel.stats.reads - reads_before,
        flights_led=stats.flights_led,
        follows=stats.follows,
        promotions=stats.promotions,
        fetches_saved=stats.fetches_saved,
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
    )


def run_sweep(
    wave_widths: tuple[int, ...] = (4, 8, 16, 32),
    n_documents: int = 4,
    n_waves: int = 5,
    seed: int = _SEED,
) -> list[StampedeResult]:
    """The A16 sweep: every wave width, coalescing off then on."""
    return [
        run_stampede(
            wave_width, coalesce,
            n_documents=n_documents, n_waves=n_waves, seed=seed,
        )
        for wave_width in wave_widths
        for coalesce in (False, True)
    ]


FULL = dict(wave_widths=(4, 8, 16, 32), n_documents=4, n_waves=5)
SMOKE = dict(wave_widths=(32,), n_documents=2, n_waves=2)

COLUMNS = (
    ("wave", "wave_width"),
    ("coalesce", "coalesce"),
    ("reads", "reads"),
    ("keys", "distinct_keys"),
    ("chain execs", "chain_executions"),
    ("execs/key", "chain_executions_per_key"),
    ("saved", "fetches_saved"),
    ("mean ms", "mean_ms"),
    ("p99 ms", "p99_ms"),
)


def main(smoke: bool = False) -> None:
    """Print the A16 table and write ``BENCH_A16.json``."""
    size = SMOKE if smoke else FULL
    results = run_sweep(**size)
    print(
        table(
            results,
            COLUMNS,
            title=(
                "A16. Single-flight stampedes: open-loop waves of "
                f"cold cross-user misses ({size['n_documents']} documents "
                f"x {size['n_waves']} waves; coalesced ideal execs/key = "
                "1.0, uncoalesced = wave width)"
            ),
        )
    )
    widest_on = max(
        (r for r in results if r.coalesce), key=lambda r: r.wave_width
    )
    widest_off = next(
        r for r in results
        if not r.coalesce and r.wave_width == widest_on.wave_width
    )
    write_artifact(
        "a16",
        {
            "sweep": results,
            "headline": {
                "wave_width": widest_on.wave_width,
                "chain_executions_per_key_coalesced": (
                    widest_on.chain_executions_per_key
                ),
                "chain_executions_per_key_uncoalesced": (
                    widest_off.chain_executions_per_key
                ),
                "fetches_saved": widest_on.fetches_saved,
                "mean_ms_coalesced": widest_on.mean_ms,
                "mean_ms_uncoalesced": widest_off.mean_ms,
            },
            "smoke": smoke,
        },
        seed=_SEED,
    )

