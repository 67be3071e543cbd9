"""A8: cache placement — application-level, server co-located, both.

§4: "We also experimented with caches co-located with the Placeless
server and on the machine where applications are run."

Three deployments over the same multi-user Zipf workload:

* **app-level** — each user machine runs its own cache (hits are local,
  but no cross-user sharing: every machine fills independently);
* **server** — one cache at the Placeless reference server (hits cross
  the app→server hop, but all users share one cache, so a document any
  user fetched is warm for everyone);
* **both** — per-user app-level caches backed by the shared server cache
  (the two-level hierarchy): local hits where possible, server hits
  where a sibling already fetched, full path only on a global miss;
* **server+memo** / **both+memo** — the same with §3's sharing of
  identical transformed content switched on at the server cache (a
  :class:`~repro.cache.policies.MemoPolicy`), so a user's first access
  to a document another (identically-configured) user already fetched
  is served from the transform memo — a source-signature probe and a
  signature mapping — instead of running the full read path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.notifiers import InvalidationBus
from repro.cache.policies import MemoPolicy
from repro.sim.topology import CachePlacement
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population

__all__ = ["PlacementResult", "run_placement", "main"]

_SEED = 19


@dataclass
class PlacementResult:
    """Metrics of one deployment."""

    deployment: str
    mean_latency_ms: float
    #: Fraction of reads answered without running the full read path.
    combined_hit_ratio: float
    l1_hit_ratio: float
    l2_hit_ratio: float
    kernel_reads: int
    bytes_cached: int


def _workload(n_documents: int, n_users: int, n_events: int, seed: int):
    kernel, _, corpus = corpus_world(n_documents, seed)
    population = build_population(
        kernel, corpus, n_users, personalized_fraction=0.0, seed=seed
    )
    spec = TraceSpec(
        n_events=n_events, n_documents=n_documents, n_users=n_users,
        zipf_alpha=0.8, seed=seed + 3,
    )
    return kernel, corpus, population, list(generate_trace(spec))


def _run(deployment: str, n_documents: int, n_users: int, n_events: int,
         capacity: int, seed: int) -> PlacementResult:
    kernel, corpus, population, trace = _workload(
        n_documents, n_users, n_events, seed
    )
    bus = InvalidationBus(kernel.ctx)

    memo = deployment.endswith("+memo")
    tier = deployment.removesuffix("+memo")
    server_cache = None
    if tier in ("server", "both"):
        server_cache = DocumentCache(
            kernel, capacity_bytes=capacity, bus=bus,
            placement=CachePlacement.SERVER_COLOCATED,
            memo_policy=MemoPolicy() if memo else None, name="a8-server",
        )
    app_caches: list[DocumentCache] = []
    if tier in ("app-level", "both"):
        app_caches = [
            DocumentCache(
                kernel, capacity_bytes=capacity, bus=bus,
                placement=CachePlacement.APPLICATION_LEVEL,
                backing=server_cache,
                name=f"a8-app-{user_index}",
            )
            for user_index in range(n_users)
        ]

    total_latency = 0.0
    for event in trace:
        reference = population.reference(event.user_index, event.document_index)
        if tier == "server":
            outcome = server_cache.read(reference)
        else:
            outcome = app_caches[event.user_index].read(reference)
        total_latency += outcome.elapsed_ms

    l1_hits = sum(c.stats.hits for c in app_caches)
    l1_lookups = sum(c.stats.lookups for c in app_caches)
    l2_hits = server_cache.stats.hits if server_cache else 0
    l2_lookups = server_cache.stats.lookups if server_cache else 0
    combined_hits = l1_hits + l2_hits
    bytes_cached = sum(c.used_bytes for c in app_caches)
    if server_cache is not None:
        bytes_cached += server_cache.used_bytes
    return PlacementResult(
        deployment=deployment,
        mean_latency_ms=total_latency / len(trace),
        combined_hit_ratio=combined_hits / len(trace),
        l1_hit_ratio=l1_hits / l1_lookups if l1_lookups else 0.0,
        l2_hit_ratio=l2_hits / l2_lookups if l2_lookups else 0.0,
        kernel_reads=kernel.stats.reads,
        bytes_cached=bytes_cached,
    )


def run_placement(
    n_documents: int = 60,
    n_users: int = 6,
    n_events: int = 2400,
    capacity: int = 64 << 20,
    seed: int = _SEED,
) -> list[PlacementResult]:
    """Run the three deployments over identical workloads."""
    return [
        _run(deployment, n_documents, n_users, n_events, capacity, seed)
        for deployment in (
            "app-level", "server", "server+memo", "both", "both+memo",
        )
    ]


TITLE = (
    "A8. Cache placement: application-level vs. server co-located vs. a "
    "two-level hierarchy (6 users, shared docs)."
)

COLUMNS = (
    ("deployment", "deployment"),
    ("mean latency (ms)", "mean_latency_ms"),
    ("combined hit ratio", "combined_hit_ratio"),
    ("L1 hit ratio", "l1_hit_ratio"),
    ("L2 hit ratio", "l2_hit_ratio"),
    ("kernel reads", "kernel_reads"),
    ("cached MB", lambda r: r.bytes_cached / 1e6),
)


def main(smoke: bool = False) -> None:
    """Print the A8 table and write ``BENCH_A8.json`` (one size)."""
    rows = run_placement()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a8", {"deployments": rows}, seed=_SEED)

