"""A1: the notifier vs. verifier trade-off (§3, deferred to §5).

"In general, verifier execution trades-off cache consistency with cache
access time latencies, while notifier execution adds load to the
Placeless system.  The evaluation of these tradeoffs is future work."

We run the same mixed workload — Zipf reads by a reader population, plus
in-band writes (through Placeless, which notifiers snoop) and out-of-band
repository updates (which only verifiers catch) — under four consistency
configurations:

* **none** — no notifiers installed, verifiers not executed;
* **notifiers-only** — push invalidations, hits served unverified;
* **verifiers-only** — every hit pays verifier execution;
* **both** — the paper's full design.

Reported per configuration: hit ratio, mean hit latency (the verifier
latency cost), notifier deliveries (the system-load cost), and the
ground-truth staleness ratio (hits that served outdated bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.cache.notifiers import InvalidationBus
from repro.workload.documents import generate_text
from repro.workload.trace import TraceEventKind, TraceSpec, generate_trace

__all__ = ["ConsistencyConfigResult", "run_notifier_verifier", "main"]

_SEED = 7


@dataclass
class ConsistencyConfigResult:
    """Metrics of one consistency configuration."""

    config: str
    hit_ratio: float
    mean_hit_latency_ms: float
    verifier_cost_ms: float
    notifier_deliveries: int
    staleness_ratio: float
    stale_hits: int
    invalidations: int


#: The four configurations: (label, install_notifiers, use_verifiers).
CONFIGURATIONS = (
    ("none", False, False),
    ("notifiers-only", True, False),
    ("verifiers-only", False, True),
    ("both", True, True),
)


def run_notifier_verifier(
    n_documents: int = 40,
    n_events: int = 1500,
    p_write: float = 0.04,
    p_out_of_band: float = 0.04,
    ttl_ms: float = 30_000.0,
    seed: int = _SEED,
) -> list[ConsistencyConfigResult]:
    """Run the four configurations over identical workloads."""
    return [
        _run_one(
            label, install_notifiers, use_verifiers,
            n_documents, n_events, p_write, p_out_of_band, ttl_ms, seed,
        )
        for label, install_notifiers, use_verifiers in CONFIGURATIONS
    ]


def _run_one(
    label: str,
    install_notifiers: bool,
    use_verifiers: bool,
    n_documents: int,
    n_events: int,
    p_write: float,
    p_out_of_band: float,
    ttl_ms: float,
    seed: int,
) -> ConsistencyConfigResult:
    kernel, _, corpus = corpus_world(n_documents, seed, ttl_ms=ttl_ms)
    writer = kernel.create_user("writer")
    # The writer holds their own references; their writes reach the reader
    # through base-document notifiers (in-band class 1).
    writer_refs = [
        kernel.space(writer).add_reference(doc.reference.base, doc.label)
        for doc in corpus
    ]
    bus = InvalidationBus(kernel.ctx)
    cache = DocumentCache(
        kernel,
        capacity_bytes=64 << 20,  # ample: isolate consistency, not capacity
        bus=bus,
        install_notifiers=install_notifiers,
        use_verifiers=use_verifiers,
        name=f"a1-{label}",
    )
    spec = TraceSpec(
        n_events=n_events,
        n_documents=n_documents,
        n_users=1,
        p_write=p_write,
        p_out_of_band=p_out_of_band,
        mean_think_time_ms=150.0,
        seed=seed,
    )
    stale_hits = 0
    for event in generate_trace(spec):
        kernel.ctx.clock.advance(event.think_time_ms)
        document = corpus[event.document_index]
        if event.kind is TraceEventKind.WRITE:
            new_content = generate_text(
                document.size_bytes, seed=event.detail
            )
            kernel.write(writer_refs[event.document_index], new_content)
        elif event.kind is TraceEventKind.OUT_OF_BAND_UPDATE:
            new_content = generate_text(
                document.size_bytes, seed=event.detail ^ 0x5A5A
            )
            document.provider.mutate_out_of_band(new_content)
        # A read (other mutation kinds are not part of A1), and ground
        # truth a real cache could not see: a hit is stale when the
        # repository's bytes moved since its entry was filled.
        elif cache.read(document.reference).hit:
            filled = cache.entry_for(document.reference).source_signature
            if filled is not None and (
                document.provider.peek_signature() != filled
            ):
                stale_hits += 1

    stats = cache.stats
    return ConsistencyConfigResult(
        config=label,
        hit_ratio=stats.hit_ratio,
        mean_hit_latency_ms=stats.mean_hit_latency_ms,
        verifier_cost_ms=stats.verifier_cost_ms,
        notifier_deliveries=bus.stats.deliveries,
        staleness_ratio=stale_hits / stats.hits if stats.hits else 0.0,
        stale_hits=stale_hits,
        invalidations=sum(stats.invalidations.values()),
    )


TITLE = (
    "A1. Notifier vs. verifier trade-off (consistency vs. latency vs. "
    "system load)."
)

COLUMNS = (
    ("config", "config"),
    ("hit ratio", "hit_ratio"),
    ("hit latency (ms)", "mean_hit_latency_ms"),
    ("verifier cost (ms)", "verifier_cost_ms"),
    ("notifier msgs", "notifier_deliveries"),
    ("stale hits", "stale_hits"),
    ("staleness", "staleness_ratio"),
)


def main(smoke: bool = False) -> None:
    """Print the A1 table and write ``BENCH_A1.json`` (one size)."""
    rows = run_notifier_verifier()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a1", {"configs": rows}, seed=_SEED)

