"""A2: cost-aware Greedy-Dual-Size vs. baseline replacement policies.

§3: "A cache may wish to tailor its replacement policy to favor documents
with numerous or complicated active properties to increase the benefit
that caching provides"; §4 says the implementation runs Greedy-Dual-Size
over the property-supplied replacement costs.

The workload is designed so that cost-awareness matters: a Zipf trace
over a corpus whose documents differ wildly in refetch cost — repository
mix (memory-fast NFS vs. slow www) *and* property chains (an expensive
translation property on a third of the documents).  Under a cache far
smaller than the corpus, a cost-blind policy evicts expensive documents
as readily as cheap ones; GDS keeps the expensive ones and wins on total
latency even where hit *ratios* are close.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.harness import corpus_world, fmt, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.replacement import make_policy
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.workload.trace import zipf_indices

__all__ = [
    "PolicyResult",
    "run_replacement",
    "run_capacity_sweep",
    "format_capacity_sweep",
    "main",
    "DEFAULT_POLICIES",
]

_SEED = 11

DEFAULT_POLICIES = (
    "gds",
    "gdsf",
    "gds-costblind",
    "gd",
    "lru",
    "lfu",
    "fifo",
    "size",
    "random",
)


@dataclass
class PolicyResult:
    """Metrics of one policy run."""

    policy: str
    capacity_fraction: float
    hit_ratio: float
    total_latency_ms: float
    mean_latency_ms: float
    evictions: int
    latency_saved_vs_nocache_ms: float


def _build_world(n_documents: int, seed: int):
    """Corpus + heterogeneous chains, rebuilt identically per policy."""
    kernel, _, corpus = corpus_world(n_documents, seed)
    rng = random.Random(seed + 1)
    for document in corpus:
        roll = rng.random()
        if roll < 0.33:
            document.reference.attach(TranslationProperty())
            document.property_names.append("translate-to-french")
        elif roll < 0.53:
            document.reference.attach(SpellingCorrectorProperty())
            document.property_names.append("spell-correct")
    return kernel, corpus


def run_replacement(
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    n_documents: int = 150,
    n_reads: int = 3000,
    capacity_fraction: float = 0.10,
    zipf_alpha: float = 0.8,
    seed: int = _SEED,
) -> list[PolicyResult]:
    """Replay the identical trace under each policy."""
    # Size the cache from one throwaway world so every run matches.
    _, sizing_corpus = _build_world(n_documents, seed)
    total_bytes = sum(d.size_bytes for d in sizing_corpus)
    capacity = max(4096, int(total_bytes * capacity_fraction))
    trace = zipf_indices(n_documents, n_reads, zipf_alpha, seed=seed + 2)

    results = []
    for policy_name in policies:
        kernel, corpus = _build_world(n_documents, seed)
        # Baseline: what the same trace costs with no cache at all.
        cache = DocumentCache(
            kernel,
            capacity_bytes=capacity,
            policy=make_policy(policy_name, seed=seed),
            name=f"a2-{policy_name}",
        )
        total_latency = 0.0
        no_cache_latency = 0.0
        for document_index in trace:
            document = corpus[document_index]
            outcome = cache.read(document.reference)
            total_latency += outcome.elapsed_ms
            # The counterfactual no-cache latency for the same access is
            # approximated by this document's first observed miss cost.
            no_cache_latency += _miss_cost(document, cache, outcome)
        results.append(
            PolicyResult(
                policy=policy_name,
                capacity_fraction=capacity_fraction,
                hit_ratio=cache.stats.hit_ratio,
                total_latency_ms=total_latency,
                mean_latency_ms=total_latency / n_reads,
                evictions=cache.stats.evictions,
                latency_saved_vs_nocache_ms=no_cache_latency - total_latency,
            )
        )
    return sorted(results, key=lambda r: r.total_latency_ms)


#: Per-document first-miss latency cache used for the counterfactual.
def _miss_cost(document, cache, outcome) -> float:
    state = document.__dict__.setdefault("_first_miss_ms", None)
    if not outcome.hit and state is None:
        document._first_miss_ms = outcome.elapsed_ms
    return document._first_miss_ms or outcome.elapsed_ms


def run_capacity_sweep(
    policies: tuple[str, ...] = ("gds", "gdsf", "lru", "size"),
    fractions: tuple[float, ...] = (0.03, 0.05, 0.10, 0.20, 0.40),
    n_documents: int = 120,
    n_reads: int = 1500,
    seed: int = _SEED,
) -> dict[float, list[PolicyResult]]:
    """The figure-style series: policy performance across cache sizes.

    Cao & Irani evaluate GDS across cache sizes; this regenerates that
    curve shape for our workload — the cost-aware policies' advantage is
    largest when the cache is small relative to the corpus and vanishes
    as everything fits.
    """
    return {
        fraction: run_replacement(
            policies=policies,
            n_documents=n_documents,
            n_reads=n_reads,
            capacity_fraction=fraction,
            seed=seed,
        )
        for fraction in fractions
    }


TITLE = (
    "A2. Replacement policies under a 10%-of-corpus cache (cost-aware GDS "
    "should lead on latency)."
)

COLUMNS = (
    ("policy", "policy"),
    ("hit ratio", "hit_ratio"),
    ("mean latency (ms)", "mean_latency_ms"),
    ("total latency (s)", lambda r: r.total_latency_ms / 1000.0),
    ("latency saved (s)", lambda r: r.latency_saved_vs_nocache_ms / 1000.0),
    ("evictions", "evictions"),
)

SWEEP_COLUMNS = (
    ("capacity", fmt("capacity_fraction", ".0%")),
    ("policy", "policy"),
    ("hit ratio", "hit_ratio"),
    ("mean latency (ms)", "mean_latency_ms"),
)


def format_capacity_sweep(sweep: dict[float, list[PolicyResult]]) -> str:
    """Render the sweep as one row per (capacity, policy)."""
    return table(
        [r for _, results in sorted(sweep.items()) for r in results],
        SWEEP_COLUMNS,
        title="A2b. Policies across cache sizes (series; best policy per "
        "size reads top of each group).",
    )


def main(smoke: bool = False) -> None:
    """Print the A2 tables (policies sorted by total latency, best first;
    one size) and write ``BENCH_A2.json``."""
    rows = run_replacement()
    print(table(rows, COLUMNS, title=TITLE))
    print()
    sweep = run_capacity_sweep(
        fractions=(0.05, 0.10, 0.25), n_documents=80, n_reads=800
    )
    print(format_capacity_sweep(sweep))
    write_artifact(
        "a2",
        {
            "policies": rows,
            "capacity_sweep": [r for rs in sweep.values() for r in rs],
        },
        seed=_SEED,
    )

