"""A7: access latency vs. property-chain length — why caching matters here.

§3's opening motivation: "Document access latencies are affected by the
interposition of active property execution."  The longer (and costlier)
the chain of transforming properties on the read path, the more an
uncached access costs — while a cache hit serves the already-transformed
bytes at flat, local cost.  The cached/uncached gap therefore *grows*
with chain length; this is the curve that motivates the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import mean, table, write_artifact
from repro.cache.manager import DocumentCache
from repro.placeless.kernel import PlacelessKernel
from repro.properties.spellcheck import SpellingCorrectorProperty
from repro.properties.translate import TranslationProperty
from repro.providers.web import WebOrigin, WebProvider
from repro.workload.documents import generate_text

__all__ = ["ChainLengthResult", "run_chain_latency", "main"]

_SEED = 53


@dataclass
class ChainLengthResult:
    """Latencies for one chain length."""

    chain_length: int
    uncached_ms: float
    hit_ms: float
    replacement_cost_ms: float

    @property
    def speedup(self) -> float:
        """Uncached over hit latency."""
        return self.uncached_ms / self.hit_ms if self.hit_ms else float("inf")


def _make_chain(length: int) -> list:
    """Alternating cheap/expensive transforming properties."""
    chain = []
    for index in range(length):
        if index % 2 == 0:
            chain.append(
                SpellingCorrectorProperty(name=f"spell-{index}")
            )
        else:
            chain.append(
                TranslationProperty(name=f"translate-{index}")
            )
    return chain


def run_chain_latency(
    lengths: tuple[int, ...] = (0, 1, 2, 4, 6, 8),
    document_bytes: int = 8000,
    repeats: int = 5,
    seed: int = _SEED,
) -> list[ChainLengthResult]:
    """Measure uncached and cache-hit latency per chain length."""
    results = []
    for length in lengths:
        kernel = PlacelessKernel()
        owner = kernel.create_user("owner")
        origin = WebOrigin(kernel.ctx.clock, host="parcweb")
        origin.publish(
            "/doc.html", generate_text(document_bytes, seed), ttl_ms=3.6e6
        )
        reference = kernel.import_document(
            owner, WebProvider(kernel.ctx, origin, "/doc.html"), "chained"
        )
        for prop in _make_chain(length):
            reference.attach(prop)

        uncached = [
            kernel.read(reference).elapsed_ms for _ in range(repeats)
        ]
        replacement_cost = kernel.read(reference).meta.replacement_cost_ms
        cache = DocumentCache(
            kernel, capacity_bytes=1 << 20, name=f"a7-{length}"
        )
        cache.read(reference)  # fill
        hits = [cache.read(reference).elapsed_ms for _ in range(repeats)]
        results.append(
            ChainLengthResult(
                chain_length=length,
                uncached_ms=mean(uncached),
                hit_ms=mean(hits),
                replacement_cost_ms=replacement_cost,
            )
        )
    return results


TITLE = (
    "A7. Latency vs. property-chain length: the cached/uncached gap grows "
    "with the chain."
)

COLUMNS = (
    ("chain length", "chain_length"),
    ("uncached (ms)", "uncached_ms"),
    ("cache hit (ms)", "hit_ms"),
    ("speedup", "speedup"),
    ("replacement cost (ms)", "replacement_cost_ms"),
)


def main(smoke: bool = False) -> None:
    """Print the A7 table and write ``BENCH_A7.json`` (one size)."""
    rows = run_chain_latency()
    print(table(rows, COLUMNS, title=TITLE))
    write_artifact("a7", {"lengths": rows}, seed=_SEED)

