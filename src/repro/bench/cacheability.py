"""A4: cacheability indicators and event forwarding vs. "make it uncacheable".

§3: the WWW's solution to operation-tracking "generally is to make those
pages for which operations are tracked uncacheable.  For Placeless that
seemed an unreasonable restriction."  Instead, properties vote
``CACHEABLE_WITH_EVENTS`` and the cache forwards operations as events.

Three configurations of the same read-audit scenario:

* **unrestricted** — no audit property (no tracking at all): the latency
  baseline, but the audit trail is empty;
* **with-events** — the audit property votes CACHEABLE_WITH_EVENTS: hits
  are served from the cache *and* forwarded, so the trail is complete;
* **uncacheable** — the WWW-style alternative: the audited document is
  simply not cached; the trail is complete but every read pays the full
  path.

The table shows event forwarding gets (nearly) unrestricted latency with
a complete audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import corpus_world, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.properties.audit import ReadAuditTrailProperty
from repro.properties.uncacheable import UncacheableProperty
from repro.workload.trace import zipf_indices

__all__ = ["CacheabilityResult", "run_cacheability", "main"]

_SEED = 31


@dataclass
class CacheabilityResult:
    """Metrics of one configuration."""

    config: str
    hit_ratio: float
    mean_latency_ms: float
    forwarded_reads: int
    reads_observed_by_audit: int
    total_reads: int

    @property
    def audit_complete(self) -> bool:
        """Did the audit trail see every read?"""
        if self.config == "unrestricted":
            return False  # there is no audit property at all
        return self.reads_observed_by_audit == self.total_reads


def _run_config(
    config: str, n_documents: int, n_reads: int, seed: int
) -> CacheabilityResult:
    kernel, _, corpus = corpus_world(n_documents, seed)
    audits: list[ReadAuditTrailProperty] = []
    for document in corpus:
        if config == "with-events":
            audit = ReadAuditTrailProperty()
            document.reference.attach(audit)
            audits.append(audit)
        elif config == "uncacheable":
            audit = ReadAuditTrailProperty()
            document.reference.attach(audit)
            document.reference.attach(UncacheableProperty())
            audits.append(audit)
    cache = DocumentCache(
        kernel, capacity_bytes=1 << 30, name=f"a4-{config}"
    )
    total_latency = 0.0
    trace = zipf_indices(n_documents, n_reads, alpha=0.8, seed=seed)
    for document_index in trace:
        outcome = cache.read(corpus[document_index].reference)
        total_latency += outcome.elapsed_ms
    observed = sum(a.reads_observed for a in audits)
    return CacheabilityResult(
        config=config,
        hit_ratio=cache.stats.hit_ratio,
        mean_latency_ms=total_latency / n_reads,
        forwarded_reads=cache.stats.forwarded_reads,
        reads_observed_by_audit=observed,
        total_reads=n_reads,
    )


def run_cacheability(
    n_documents: int = 30, n_reads: int = 1200, seed: int = _SEED
) -> list[CacheabilityResult]:
    """Run the three configurations over identical traces."""
    return [
        _run_config(config, n_documents, n_reads, seed)
        for config in ("unrestricted", "with-events", "uncacheable")
    ]


TITLE = (
    "A4. CACHEABLE_WITH_EVENTS keeps tracking complete at near-cache "
    "latency; the WWW alternative pays full latency."
)

COLUMNS = (
    ("config", "config"),
    ("hit ratio", "hit_ratio"),
    ("mean latency (ms)", "mean_latency_ms"),
    ("forwarded reads", "forwarded_reads"),
    ("audit saw", lambda r: f"{r.reads_observed_by_audit}/{r.total_reads}"),
    ("audit complete", "audit_complete"),
)


def main(smoke: bool = False) -> None:
    """Print the A4 table and write ``BENCH_A4.json`` (one size)."""
    rows = run_cacheability()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a4", {"configs": rows}, seed=_SEED)

