"""A6: QoS properties inflate replacement costs to hold their targets.

§5: "Quality of Service (QoS) properties, like 'always available' or
'access time < .25 seconds', may need to specify caching requirements to
tailor cache replacement policies.  One possibility for QoS properties
to influence cache replacement is to inflate replacement costs."

The adversarial setup: the QoS-tagged documents sit in the *unpopular*
tail of a Zipf trace, under a cache an order of magnitude smaller than
the corpus.  A recency/size policy — or GDS without the inflation — keeps
the popular documents and evicts the QoS ones, blowing their access-time
target whenever they are read.  With inflation, their inflated
Greedy-Dual value keeps them resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.replacement import GreedyDualSizePolicy
from repro.properties.qos import QoSProperty
from repro.workload.trace import zipf_indices

__all__ = ["QoSResult", "run_qos", "main"]

_SEED = 41


@dataclass
class QoSResult:
    """Metrics of one configuration (inflation on/off)."""

    config: str
    qos_accesses: int
    qos_compliant: int
    qos_compliance: float
    qos_mean_latency_ms: float
    overall_hit_ratio: float


def _run_config(
    inflate: bool,
    n_documents: int,
    n_qos: int,
    n_reads: int,
    target_ms: float,
    capacity_fraction: float,
    seed: int,
) -> QoSResult:
    kernel, _, corpus = corpus_world(n_documents, seed)
    # QoS documents: the least popular tail of the Zipf ordering.
    qos_indices = set(range(n_documents - n_qos, n_documents))
    qos_props: dict[int, QoSProperty] = {}
    for index in qos_indices:
        prop = QoSProperty(
            max_access_time_ms=target_ms,
            inflation_ms=None if inflate else 0.0,
        )
        corpus[index].reference.attach(prop)
        qos_props[index] = prop

    capacity = max(
        4096, int(sum(d.size_bytes for d in corpus) * capacity_fraction)
    )
    cache = DocumentCache(
        kernel,
        capacity_bytes=capacity,
        policy=GreedyDualSizePolicy(),
        name=f"a6-{'inflate' if inflate else 'flat'}",
    )
    trace = zipf_indices(n_documents, n_reads, alpha=0.9, seed=seed + 5)
    # Ensure every QoS document appears periodically even if the Zipf
    # tail missed it: interleave one QoS round per 100 steps.
    qos_cycle = sorted(qos_indices)
    for step, document_index in enumerate(trace):
        if step % 100 == 99:
            document_index = qos_cycle[(step // 100) % len(qos_cycle)]
        outcome = cache.read(corpus[document_index].reference)
        prop = qos_props.get(document_index)
        if prop is not None:
            prop.record_access(outcome.elapsed_ms)

    accesses = sum(len(p.observed_access_times_ms) for p in qos_props.values())
    violations = sum(p.violations for p in qos_props.values())
    latency = sum(
        sum(p.observed_access_times_ms) for p in qos_props.values()
    )
    return QoSResult(
        config="inflated" if inflate else "no-inflation",
        qos_accesses=accesses,
        qos_compliant=accesses - violations,
        qos_compliance=(accesses - violations) / accesses if accesses else 1.0,
        qos_mean_latency_ms=latency / accesses if accesses else 0.0,
        overall_hit_ratio=cache.stats.hit_ratio,
    )


def run_qos(
    n_documents: int = 120,
    n_qos: int = 12,
    n_reads: int = 3000,
    target_ms: float = 5.0,
    capacity_fraction: float = 0.08,
    seed: int = _SEED,
) -> list[QoSResult]:
    """Run with and without inflation over identical traces.

    The default target (5 virtual ms) means "must hit in cache": any
    full-path read of a www document blows it, mirroring the paper's
    "access time < .25 seconds" against 1999 WAN latencies.
    """
    return [
        _run_config(
            inflate,
            n_documents,
            n_qos,
            n_reads,
            target_ms,
            capacity_fraction,
            seed,
        )
        for inflate in (False, True)
    ]


TITLE = (
    "A6. QoS replacement-cost inflation keeps tail documents resident "
    "under pressure."
)

COLUMNS = (
    ("config", "config"),
    ("qos accesses", "qos_accesses"),
    ("compliant", "qos_compliant"),
    ("compliance", "qos_compliance"),
    ("qos mean latency (ms)", "qos_mean_latency_ms"),
    ("overall hit ratio", "overall_hit_ratio"),
)


def main(smoke: bool = False) -> None:
    """Print the A6 table and write ``BENCH_A6.json`` (one size)."""
    rows = run_qos()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a6", {"configs": rows}, seed=_SEED)

