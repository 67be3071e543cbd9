"""A17: cluster topology — shard count, topology churn, memo sharing.

The cluster layer (DESIGN.md §3.4) runs N consistent-hash shards over
one kernel, optionally sharing the transform-memo plane and the
single-flight table across them.  This bench sweeps shard count with
the cluster policy off (fully isolated shards — private memos, private
flights) then on (one :class:`~repro.cluster.memo_share
.SharedTransformMemo`, one flight table), driving a 32-way multi-user
workload with topology churn — one ``add_shard`` rebalance and one
``lose_shard`` failure mid-run, both repaired through the reused A13
anti-entropy resync — and reports:

* cluster-wide hit ratio and kernel chain executions (the acceptance
  criterion: at ≥ 4 shards, cross-shard memo sharing avoids ≥ 50 % of
  the chain executions the isolated arm pays);
* cross-shard memo imports (signature-only adopts whose bytes were
  pulled over a shard link) and the bytes moved;
* invalidation fan-out: shards actually holding entries per
  cluster-wide explicit invalidation;
* resync repair counts for the add/lose events, and virtual read
  latency mean/p99.

A separate parity probe replays one deterministic workload against a
plain :class:`~repro.cache.manager.DocumentCache` and a one-shard
cluster with ``cluster_policy=None`` and compares outcome digests —
byte-identical is the off-by-default guarantee.

The run writes ``BENCH_A17.json`` through the shared artifact writer;
CI's cluster job fails the build when the shared arm performed zero
cross-shard memo imports, the parity digests diverge, or any arm's
``hits + misses`` differs from the reads it issued (the cluster's
totals must survive the mid-run ``lose_shard``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bench.harness import (
    fmt,
    mean,
    percentile,
    shared_chain_world,
    table,
    write_artifact,
)
from repro.cache.manager import DocumentCache
from repro.cache.policies import (
    DefaultConcurrencyPolicy,
    DefaultMemoPolicy,
    DefaultRecoveryPolicy,
)
from repro.cluster import CacheCluster, DefaultClusterPolicy
from repro.placeless.kernel import PlacelessKernel

__all__ = ["ClusterResult", "run_cluster", "run_sweep", "check_parity", "main"]

_SEED = 53


@dataclass
class ClusterResult:
    """Metrics of one (shard count, sharing on/off) cluster run."""

    shard_count: int
    shared: bool
    n_users: int
    n_documents: int
    n_epochs: int
    reads: int
    hits: int
    misses: int
    hit_ratio: float
    chain_executions: int
    memo_adoptions: int
    memo_imports: int
    import_bytes: int
    invalidations: int
    invalidation_shard_touches: int
    add_repairs: int
    loss_repairs: int
    entries_after: int
    mean_ms: float
    p50_ms: float
    p99_ms: float

    @property
    def invalidation_fanout(self) -> float:
        """Shards holding entries per cluster-wide invalidation."""
        if not self.invalidations:
            return 0.0
        return self.invalidation_shard_touches / self.invalidations


def _build_cluster(
    kernel: PlacelessKernel, shard_count: int, shared: bool
) -> CacheCluster:
    return CacheCluster(
        kernel,
        shard_count,
        capacity_bytes=1 << 30,
        cluster_policy=DefaultClusterPolicy() if shared else None,
        memo_policy=DefaultMemoPolicy(),
        concurrency_policy=DefaultConcurrencyPolicy(),
        recovery_policy=DefaultRecoveryPolicy(),
        name=f"a17-{shard_count}-{'shared' if shared else 'isolated'}",
    )


def run_cluster(
    shard_count: int,
    shared: bool,
    n_users: int = 32,
    n_documents: int = 6,
    n_epochs: int = 6,
    seed: int = _SEED,
) -> ClusterResult:
    """One arm of the A17 sweep: a churned multi-user cluster run.

    Each epoch invalidates one rotating document cluster-wide, mutates
    its source out of band (a fresh chain key), then lands the full
    ``n_users × n_documents`` batch through :meth:`CacheCluster
    .read_many` — one deterministic FIFO batch fanning across every
    shard.  At one third of the run the cluster grows by a shard
    (rebalance-as-resync); at two thirds it loses its first shard (the
    survivors repair through the same resync).  Both arms see the
    identical event script, so the shared-vs-isolated delta is the
    memo/flight sharing alone.
    """
    kernel, corpus, population = shared_chain_world(
        n_documents, n_users, seed
    )
    cluster = _build_cluster(kernel, shard_count, shared)
    add_epoch = n_epochs // 3 if shard_count > 1 else -1
    loss_epoch = (2 * n_epochs) // 3 if shard_count > 1 else -1
    reads_before = kernel.stats.reads
    add_repairs = loss_repairs = 0
    latencies: list[float] = []
    for epoch in range(n_epochs):
        if epoch == add_epoch:
            repairs_before = cluster.rebalance_repairs
            cluster.add_shard()
            add_repairs = cluster.rebalance_repairs - repairs_before
        if epoch == loss_epoch:
            loss_repairs = cluster.lose_shard(next(iter(cluster.shards)))
        document_index = epoch % n_documents
        cluster.invalidate_document(
            corpus[document_index].reference.base.document_id
        )
        corpus[document_index].provider.mutate_out_of_band(
            f"epoch {epoch} document {document_index}".encode() * 24
        )
        references = [
            population.reference(user_index, index)
            for user_index in range(n_users)
            for index in range(n_documents)
        ]
        for outcome in cluster.read_many(references):
            latencies.append(outcome.elapsed_ms)
        kernel.ctx.clock.advance(100.0)
    stats = cluster.aggregate_stats()
    memo_stats = cluster.memo_stats
    shared_memo = cluster.shared_memo
    return ClusterResult(
        shard_count=shard_count,
        shared=shared,
        n_users=n_users,
        n_documents=n_documents,
        n_epochs=n_epochs,
        reads=len(latencies),
        hits=stats.hits,
        misses=stats.misses,
        hit_ratio=cluster.hit_ratio,
        chain_executions=kernel.stats.reads - reads_before,
        memo_adoptions=memo_stats.adoptions if memo_stats else 0,
        memo_imports=shared_memo.imports if shared_memo else 0,
        import_bytes=shared_memo.import_bytes if shared_memo else 0,
        invalidations=cluster.invalidations,
        invalidation_shard_touches=cluster.invalidation_shard_touches,
        add_repairs=add_repairs,
        loss_repairs=loss_repairs,
        entries_after=len(cluster),
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
    )


def check_parity(seed: int = _SEED) -> dict:
    """Replay one workload on a plain cache and a one-shard cluster.

    The cluster runs with ``cluster_policy=None``; outcomes (content,
    disposition, virtual elapsed time) are digested in order.  Equal
    digests are the guarantee that the cluster layer, disabled, adds
    nothing — the golden single-cache behaviour is untouched.
    """

    def replay(kind: str) -> str:
        kernel, corpus, population = shared_chain_world(
            5, 4, seed, personalized_fraction=0.5
        )
        if kind == "single":
            target: DocumentCache | CacheCluster = DocumentCache(
                kernel,
                capacity_bytes=1 << 20,
                concurrency_policy=DefaultConcurrencyPolicy(),
                memo_policy=DefaultMemoPolicy(),
                name="a17-parity",
            )
        else:
            target = CacheCluster(
                kernel,
                1,
                capacity_bytes=1 << 20,
                cluster_policy=None,
                concurrency_policy=DefaultConcurrencyPolicy(),
                memo_policy=DefaultMemoPolicy(),
                name="a17-parity",
            )
        digest = hashlib.sha256()
        state = seed * 2654435761 % (1 << 31) or 1
        for step in range(40):
            state = (state * 1103515245 + 12345) % (1 << 31)
            user_index, document_index = state % 4, (state >> 8) % 5
            if step % 9 == 8:
                corpus[document_index].provider.mutate_out_of_band(
                    f"oob {step}".encode() * 9
                )
                continue
            references = [
                population.reference(
                    (user_index + i) % 4, (document_index + i) % 5
                )
                for i in range(3)
            ]
            for outcome in target.read_many(references):
                digest.update(outcome.content)
                digest.update(outcome.disposition.encode())
                digest.update(f"{outcome.elapsed_ms:.6f}".encode())
            kernel.ctx.clock.advance(25.0)
        return digest.hexdigest()

    single, clustered = replay("single"), replay("cluster")
    return {
        "single_digest": single,
        "cluster_digest": clustered,
        "parity_ok": single == clustered,
    }


def run_sweep(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    n_users: int = 32,
    n_documents: int = 6,
    n_epochs: int = 6,
    seed: int = _SEED,
) -> list[ClusterResult]:
    """The A17 sweep: every shard count, isolated then shared."""
    return [
        run_cluster(
            shard_count, shared, n_users=n_users,
            n_documents=n_documents, n_epochs=n_epochs, seed=seed,
        )
        for shard_count in shard_counts
        for shared in (False, True)
    ]


def _savings(isolated: ClusterResult, shared: ClusterResult) -> float:
    """Fraction of the isolated arm's chain executions avoided."""
    if not isolated.chain_executions:
        return 0.0
    return 1.0 - shared.chain_executions / isolated.chain_executions


FULL = dict(shard_counts=(1, 2, 4, 8), n_users=32, n_documents=6, n_epochs=6)
SMOKE = dict(shard_counts=(1, 4), n_users=32, n_documents=3, n_epochs=3)

COLUMNS = (
    ("shards", "shard_count"),
    ("shared", "shared"),
    ("reads", "reads"),
    ("hit ratio", fmt("hit_ratio", ".3f")),
    ("chain execs", "chain_executions"),
    ("imports", "memo_imports"),
    ("fan-out", fmt("invalidation_fanout", ".2f")),
    ("add rep", "add_repairs"),
    ("loss rep", "loss_repairs"),
    ("mean ms", "mean_ms"),
    ("p99 ms", "p99_ms"),
)


def main(smoke: bool = False) -> None:
    """Print the A17 table and write ``BENCH_A17.json``."""
    size = SMOKE if smoke else FULL
    shard_counts = size["shard_counts"]
    results = run_sweep(**size)
    by_arm = {(r.shard_count, r.shared): r for r in results}
    print(
        table(
            results,
            COLUMNS,
            title=(
                "A17. Cluster topology: shard sweep under a "
                f"{size['n_users']}-way workload ({size['n_documents']} "
                f"documents x {size['n_epochs']} epochs, one add_shard + "
                "one lose_shard mid-run; shared arm = one memo plane + "
                "one flight table across shards)"
            ),
        )
    )
    for shard_count in shard_counts:
        if shard_count < 2:
            continue
        isolated = by_arm[(shard_count, False)]
        shared = by_arm[(shard_count, True)]
        print(
            f"  {shard_count} shards: memo sharing avoided "
            f"{_savings(isolated, shared):.0%} of chain executions "
            f"({isolated.chain_executions} -> {shared.chain_executions})"
        )
    parity = check_parity()
    print(
        "  parity (1 shard, policy off vs plain cache): "
        + ("byte-identical" if parity["parity_ok"] else "DIVERGED")
    )
    headline_count = max(c for c in shard_counts if c >= 4)
    headline_shared = by_arm[(headline_count, True)]
    headline_isolated = by_arm[(headline_count, False)]
    write_artifact(
        "a17",
        {
            "sweep": results,
            "parity": parity,
            "headline": {
                "shard_count": headline_count,
                "memo_adoptions": headline_shared.memo_adoptions,
                "memo_imports": headline_shared.memo_imports,
                "chain_executions_shared": headline_shared.chain_executions,
                "chain_executions_isolated": (
                    headline_isolated.chain_executions
                ),
                "chain_savings": _savings(headline_isolated, headline_shared),
                "invalidation_fanout": headline_shared.invalidation_fanout,
                "parity_ok": parity["parity_ok"],
            },
            "smoke": smoke,
        },
        seed=_SEED,
    )

