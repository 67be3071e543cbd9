"""A15: transform memoization — chain executions avoided, miss latency.

§3's signature sharing stores identical transformed content once; the
transform memo also skips *producing* it again: ``(source signature,
chain fingerprint) → output signature``, so the second user's cold miss
becomes a signature-only memo serve instead of a provider fetch plus a
full active-property chain execution.  This bench sweeps the user count
with the memo on and off over a corpus whose base documents carry a
shared (expensive, buffered) translation chain, and reports:

* chain executions (kernel reads — each one runs the full chain) and
  the fraction the memo avoided (ideal for N users: ``1 - 1/N``);
* cold-read virtual latency mean/p50/p99 — memoized misses skip the
  repository hop and the chain's execution cost.

(What an instrumentation emit costs on the wall clock is perfbench's
``probe.cache.instrumentation.emit_us.*``, not this experiment's.)

The run writes ``BENCH_A15.json`` through the shared artifact writer;
CI's perf-smoke job fails the build when the shared-users scenario
avoids zero chain executions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import (
    fmt,
    mean,
    percentile,
    record,
    shared_chain_world,
    table,
    write_artifact,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import DefaultMemoPolicy

__all__ = ["MemoResult", "run_memo", "run_sweep", "main"]

_SEED = 31


@dataclass
class MemoResult:
    """Metrics of one (user count, memo on/off) cold-read run."""

    n_users: int
    n_documents: int
    memo: bool
    reads: int
    chain_executions: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    memo_adoptions: int

    @property
    def chain_executions_avoided(self) -> int:
        """Chain runs the memo saved versus one-per-read."""
        return self.reads - self.chain_executions

    @property
    def avoided_pct(self) -> float:
        """Fraction of reads that skipped the chain (0.0 when empty)."""
        if not self.reads:
            return 0.0
        return self.chain_executions_avoided / self.reads


def run_memo(
    n_users: int,
    memo: bool,
    n_documents: int = 8,
    seed: int = _SEED,
) -> MemoResult:
    """Cold-read every (user, document) pair once, memo on or off.

    Every base document carries the same translation chain, so all
    users' reads share one (source signature, chain fingerprint) pair
    per document — the memo's best case, and the workload §3 describes
    ("all the transformations requested by the users are the same").
    """
    kernel, _, population = shared_chain_world(n_documents, n_users, seed)
    cache = DocumentCache(
        kernel,
        capacity_bytes=1 << 30,
        memo_policy=DefaultMemoPolicy() if memo else None,
        name=f"a15-{n_users}-{'on' if memo else 'off'}",
    )
    reads_before = kernel.stats.reads
    latencies = []
    for user_index in range(n_users):
        for document_index in range(n_documents):
            outcome = cache.read(
                population.reference(user_index, document_index)
            )
            latencies.append(outcome.elapsed_ms)
    stats = cache.memo_stats
    return MemoResult(
        n_users=n_users,
        n_documents=n_documents,
        memo=memo,
        reads=len(latencies),
        chain_executions=kernel.stats.reads - reads_before,
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        memo_adoptions=stats.adoptions if stats is not None else 0,
    )


def run_sweep(
    user_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    n_documents: int = 8,
    seed: int = _SEED,
) -> list[MemoResult]:
    """The A15 sweep: every user count, memo off then on."""
    return [
        run_memo(n_users, memo, n_documents=n_documents, seed=seed)
        for n_users in user_counts
        for memo in (False, True)
    ]


FULL = dict(user_counts=(1, 2, 4, 8, 16), n_documents=8)
SMOKE = dict(user_counts=(1, 4), n_documents=4)

COLUMNS = (
    ("users", "n_users"),
    ("memo", "memo"),
    ("reads", "reads"),
    ("chain execs", "chain_executions"),
    ("avoided", "chain_executions_avoided"),
    ("avoided %", fmt("avoided_pct", ".1%")),
    ("mean ms", "mean_ms"),
    ("p50 ms", "p50_ms"),
    ("p99 ms", "p99_ms"),
)


def main(smoke: bool = False) -> None:
    """Print the A15 table and write ``BENCH_A15.json``."""
    size = SMOKE if smoke else FULL
    results = run_sweep(**size)
    print(
        table(
            results,
            COLUMNS,
            title=(
                "A15. Transform memoization: cold reads, every user "
                f"sharing one translation chain ({size['n_documents']} "
                "documents; memo ideal avoided = 1 - 1/users)"
            ),
        )
    )
    shared = max(
        (r for r in results if r.memo), key=lambda r: r.n_users
    )
    baseline = next(
        r for r in results
        if not r.memo and r.n_users == shared.n_users
    )
    write_artifact(
        "a15",
        {
            "sweep": results,
            "shared": {
                **record(shared),
                "mean_ms_memo_on": shared.mean_ms,
                "mean_ms_memo_off": baseline.mean_ms,
            },
            "smoke": smoke,
        },
        seed=_SEED,
    )

