"""A9: tailored caching for related documents (collections, §5).

"mechanisms that tailor caching for related documents (e.g., contained
in a collection) have not been investigated" — we investigate the
obvious mechanism: a per-document active property that, when its
document is read, asks the cache to prefetch its collection siblings.

The workload models collection-correlated access (a user who opens one
document of a project soon opens others from the same project): reads
pick a collection by Zipf popularity and then walk ``burst`` of its
members.  We compare no-prefetch vs. prefetch on first-access latency of
the walked members and on the extra fill traffic prefetching costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import corpus_world, mean, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.placeless.collection import DocumentCollection
from repro.properties.collection import attach_collection_prefetch
from repro.workload.trace import zipf_indices

__all__ = ["CollectionResult", "run_collections", "main"]

_SEED = 29


@dataclass
class CollectionResult:
    """Metrics of one configuration."""

    config: str
    mean_read_latency_ms: float
    hit_ratio: float
    prefetch_fills: int
    #: Mean latency of the 2nd..nth member read within a burst — the
    #: reads prefetching is supposed to accelerate.
    mean_follow_latency_ms: float


def _run(prefetch: bool, n_collections: int, collection_size: int,
         n_bursts: int, burst: int, seed: int) -> CollectionResult:
    kernel, owner, corpus = corpus_world(
        n_collections * collection_size, seed
    )
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 30,
        name=f"a9-{'prefetch' if prefetch else 'plain'}",
    )
    collections = []
    for group in range(n_collections):
        collection = DocumentCollection(f"project-{group}", owner)
        members = corpus[
            group * collection_size : (group + 1) * collection_size
        ]
        for document in members:
            collection.add(document.reference)
        if prefetch:
            attach_collection_prefetch(collection, cache)
        collections.append((collection, members))

    rng = random.Random(seed + 7)
    picks = zipf_indices(n_collections, n_bursts, alpha=0.9, seed=seed + 1)
    all_latencies = []
    follow_latencies = []
    for pick in picks:
        collection, members = collections[pick]
        walk = rng.sample(range(collection_size), min(burst, collection_size))
        for position, member_index in enumerate(walk):
            outcome = cache.read(members[member_index].reference)
            all_latencies.append(outcome.elapsed_ms)
            if position > 0:
                follow_latencies.append(outcome.elapsed_ms)

    return CollectionResult(
        config="prefetch" if prefetch else "no-prefetch",
        mean_read_latency_ms=mean(all_latencies),
        hit_ratio=cache.stats.hit_ratio,
        prefetch_fills=cache.stats.prefetch_fills,
        mean_follow_latency_ms=mean(follow_latencies),
    )


def run_collections(
    n_collections: int = 12,
    collection_size: int = 8,
    n_bursts: int = 150,
    burst: int = 4,
    seed: int = _SEED,
) -> list[CollectionResult]:
    """Run with and without collection prefetch over identical bursts."""
    return [
        _run(prefetch, n_collections, collection_size, n_bursts, burst, seed)
        for prefetch in (False, True)
    ]


TITLE = (
    "A9. Collection-aware prefetch on burst (project-style) access "
    "patterns."
)

COLUMNS = (
    ("config", "config"),
    ("mean read latency (ms)", "mean_read_latency_ms"),
    ("follow-read latency (ms)", "mean_follow_latency_ms"),
    ("hit ratio", "hit_ratio"),
    ("prefetch fills", "prefetch_fills"),
)


def main(smoke: bool = False) -> None:
    """Print the A9 table and write ``BENCH_A9.json`` (one size)."""
    rows = run_collections()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a9", {"configs": rows}, seed=_SEED)

