"""A8: cache placement — application-level vs. server co-located.

§4: "We also experimented with caches co-located with the Placeless
server and on the machine where applications are run."

Four deployments over the same multi-user Zipf workload:

* **app-level** — each user machine runs its own cache (hits are local,
  but no cross-user sharing: every machine fills independently);
* **server** — one cache at the Placeless reference server (hits cross
  the app→server hop, but all users share one cache, so a document any
  user fetched is warm for everyone);
* **server+memo** — the server cache with §3's sharing of identical
  transformed content switched on (a
  :class:`~repro.cache.policies.MemoPolicy`), so a user's first access
  to a document another (identically-configured) user already fetched
  is served from the transform memo — a source-signature probe and a
  signature mapping — instead of running the full read path;
* **app+memo** — the per-user application-level caches, each with a
  ``MemoPolicy``, sharing one
  :class:`~repro.cluster.memo_share.SharedTransformMemo`: local hits,
  and a user's first access to a document a sibling already fetched
  imports the sibling's bytes over the app→reference-server hop (the
  hop a server cache's hit crosses) instead of running the read path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.memo import MEMO_CAPACITY
from repro.cache.notifiers import InvalidationBus
from repro.cache.policies import MemoPolicy
from repro.cluster.memo_share import SharedTransformMemo
from repro.sim.topology import CachePlacement, ClusterTopology
from repro.workload.trace import TraceSpec, generate_trace
from repro.workload.users import build_population

__all__ = ["PlacementResult", "run_placement", "main"]

_SEED = 19


@dataclass
class PlacementResult:
    """Metrics of one deployment."""

    deployment: str
    mean_latency_ms: float
    #: Cache hits over reads, across every cache of the deployment.
    hit_ratio: float
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


def _caches(deployment: str, kernel, n_users: int,
            capacity: int) -> list[DocumentCache]:
    bus = InvalidationBus(kernel.ctx)
    if deployment.startswith("server"):
        return [DocumentCache(
            kernel, capacity_bytes=capacity, bus=bus,
            placement=CachePlacement.SERVER_COLOCATED,
            memo_policy=MemoPolicy() if deployment == "server+memo" else None,
            name="a8-server",
        )]
    names = [f"a8-app-{user_index}" for user_index in range(n_users)]
    plane = None
    if deployment == "app+memo":
        plane = SharedTransformMemo(
            MEMO_CAPACITY * n_users,
            topology=ClusterTopology(
                shards=list(names), default_link="app-to-reference"
            ),
        )
    caches = []
    for name in names:
        cache = DocumentCache(
            kernel, capacity_bytes=capacity, bus=bus,
            placement=CachePlacement.APPLICATION_LEVEL,
            memo_policy=None if plane is None else MemoPolicy(),
            memo=plane, name=name,
        )
        if plane is not None:
            plane.attach(name, cache.core)
        caches.append(cache)
    return caches


def _run(deployment: str, n_documents: int, n_users: int, n_events: int,
         capacity: int, seed: int) -> PlacementResult:
    kernel, _, population, trace = _workload(
        n_documents, n_users, n_events, seed
    )
    caches = _caches(deployment, kernel, n_users, capacity)
    total_latency = 0.0
    for event in trace:
        reference = population.reference(event.user_index, event.document_index)
        # The one server cache, or the reader's own app-level cache.
        cache = caches[event.user_index % len(caches)]
        total_latency += cache.read(reference).elapsed_ms
    return PlacementResult(
        deployment=deployment,
        mean_latency_ms=total_latency / len(trace),
        hit_ratio=sum(c.stats.hits for c in caches) / len(trace),
        kernel_reads=kernel.stats.reads,
        bytes_cached=sum(c.used_bytes for c in caches),
    )


def run_placement(
    n_documents: int = 60,
    n_users: int = 6,
    n_events: int = 2400,
    capacity: int = 64 << 20,
    seed: int = _SEED,
) -> list[PlacementResult]:
    """Run the four deployments over identical workloads."""
    return [
        _run(deployment, n_documents, n_users, n_events, capacity, seed)
        for deployment in ("app-level", "server", "server+memo", "app+memo")
    ]


TITLE = (
    "A8. Cache placement: application-level vs. server co-located, "
    "each with and without §3's sharing (6 users, shared docs)."
)

COLUMNS = (
    ("deployment", "deployment"),
    ("mean latency (ms)", "mean_latency_ms"),
    ("hit ratio", "hit_ratio"),
    ("kernel reads", "kernel_reads"),
    ("cached MB", lambda r: r.bytes_cached / 1e6),
)


def main(smoke: bool = False) -> None:
    """Print the A8 table and write ``BENCH_A8.json`` (one size)."""
    rows = run_placement()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a8", {"deployments": rows}, seed=_SEED)
