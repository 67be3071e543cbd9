"""Table 1: document content access times for an application-level cache.

"Table 1 shows the type of document access times that the system can
achieve when hitting in an application-level cache (running on the same
machine as the application).  It also shows the raw overhead of filling
the cache on a miss.  No active properties were associated with the
documents at either the base or the reference in this experiment.  Thus,
the results show that the overhead to create a minimum set of notifiers
(to track additions and deletions of active properties) and the returning
of one TTL-based verifier is small when servicing a cache miss." (§4)

We measure, per document, the mean over *repeats* of:

* **no cache** — a full read through the kernel;
* **cache miss** — a cold cache read (fill overhead included); the cache
  is cleared between repeats so every read is a true miss;
* **cache hit** — warm reads against the filled cache.

The absolute virtual-milliseconds are a function of our calibrated
latency model, not PARC's 1999 network; what must reproduce is the
*shape*: hit ≪ no-cache for every document, miss only slightly above
no-cache, and the www documents slower than the intranet one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import mean, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.placeless.kernel import PlacelessKernel
from repro.sim.topology import CachePlacement
from repro.workload.documents import build_table1_documents

__all__ = ["Table1Row", "run_table1", "format_table1", "main"]


@dataclass
class Table1Row:
    """One line of Table 1."""

    label: str
    repository: str
    size_bytes: int
    no_cache_ms: float
    miss_ms: float
    hit_ms: float

    @property
    def hit_speedup(self) -> float:
        """No-cache latency over hit latency."""
        return self.no_cache_ms / self.hit_ms if self.hit_ms else float("inf")

    @property
    def miss_overhead_ms(self) -> float:
        """Fill overhead: miss latency minus no-cache latency."""
        return self.miss_ms - self.no_cache_ms

    @property
    def miss_overhead_fraction(self) -> float:
        """Fill overhead relative to the no-cache latency."""
        if self.no_cache_ms == 0:
            return 0.0
        return self.miss_overhead_ms / self.no_cache_ms


def run_table1(
    repeats: int = 5,
    placement: CachePlacement = CachePlacement.APPLICATION_LEVEL,
    ttl_ms: float = 3_600_000.0,
) -> list[Table1Row]:
    """Run the Table-1 experiment and return its rows.

    The TTL is generous so hit measurements are not polluted by TTL
    expiry; Table 1 measures mechanism overheads, not consistency.
    """
    kernel = PlacelessKernel()
    kernel.ctx.topology.placement = placement
    owner = kernel.create_user("eyal")
    documents = build_table1_documents(kernel, owner, ttl_ms=ttl_ms)

    rows = []
    for document in documents:
        no_cache_samples = [
            kernel.read(document.reference).elapsed_ms for _ in range(repeats)
        ]
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, name=f"t1-{document.label}"
        )
        miss_samples = []
        for _ in range(repeats):
            cache.clear()
            outcome = cache.read(document.reference)
            assert not outcome.hit
            miss_samples.append(outcome.elapsed_ms)
        hit_samples = []
        for _ in range(repeats):
            outcome = cache.read(document.reference)
            assert outcome.hit
            hit_samples.append(outcome.elapsed_ms)
        rows.append(
            Table1Row(
                label=document.label,
                repository=document.repository,
                size_bytes=document.size_bytes,
                no_cache_ms=mean(no_cache_samples),
                miss_ms=mean(miss_samples),
                hit_ms=mean(hit_samples),
            )
        )
    return rows


#: Table 1 as the paper prints it.
COLUMNS = (
    (
        "original source (size)",
        lambda row: f"{row.repository} ({row.size_bytes} bytes)",
    ),
    ("no cache", "no_cache_ms"),
    ("cache miss", "miss_ms"),
    ("cache hit", "hit_ms"),
)

DERIVED_COLUMNS = (
    ("document", "label"),
    ("hit speedup", "hit_speedup"),
    ("miss overhead (ms)", "miss_overhead_ms"),
    ("overhead %", lambda row: 100.0 * row.miss_overhead_fraction),
)


def format_table1(rows: list[Table1Row]) -> str:
    """Render the rows the way the paper prints Table 1."""
    return table(
        rows,
        COLUMNS,
        title=(
            "Table 1. Document content access times in milliseconds for an "
            "application-level cache (virtual time)."
        ),
    )


def main(smoke: bool = False) -> None:
    """Print Table 1 plus the derived overhead/speedup columns (one size)."""
    rows = run_table1()
    print(format_table1(rows))
    print()
    print(
        table(
            rows,
            DERIVED_COLUMNS,
            title="Derived: caching hides latency; miss overhead is small.",
        )
    )
    write_artifact("table1", {"rows": rows})

